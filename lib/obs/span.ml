type kind =
  | Migration
  | Context_capture
  | Transfer
  | Import
  | Resume
  | Thread_group_create
  | Page_fault
  | Futex
  | Custom of string

let kind_name = function
  | Migration -> "migration"
  | Context_capture -> "context_capture"
  | Transfer -> "transfer"
  | Import -> "import"
  | Resume -> "resume"
  | Thread_group_create -> "thread_group_create"
  | Page_fault -> "page_fault"
  | Futex -> "futex"
  | Custom s -> s

let kind_of_name = function
  | "migration" -> Migration
  | "context_capture" -> Context_capture
  | "transfer" -> Transfer
  | "import" -> Import
  | "resume" -> Resume
  | "thread_group_create" -> Thread_group_create
  | "page_fault" -> Page_fault
  | "futex" -> Futex
  | s -> Custom s

type span = {
  id : int;
  parent : int option;
  kind : kind;
  kernel : int;
  tid : int option;
  run : int;
  start : Sim.Time.t;
  mutable stop : Sim.Time.t; (* -1 while open *)
}

type t = {
  mutable next_id : int;
  mutable run : int; (* bumped per machine boot so tracks don't collide *)
  mutable acc : span list; (* newest first; [spans] reverses *)
}

let create () = { next_id = 0; run = -1; acc = [] }
let new_run t = t.run <- t.run + 1

let start t ?parent ?tid ~kernel ~at kind =
  let s =
    {
      id = t.next_id;
      parent;
      kind;
      kernel;
      tid;
      run = Stdlib.max 0 t.run;
      start = at;
      stop = -1;
    }
  in
  t.next_id <- t.next_id + 1;
  t.acc <- s :: t.acc;
  s

let finish s ~at = s.stop <- at
let spans t = List.rev t.acc

let opt_int k = function None -> [] | Some v -> [ (k, Json.Int v) ]

let to_json ?(run_offset = 0) s =
  Json.Obj
    ([
       ("id", Json.Int s.id);
       ("kind", Json.Str (kind_name s.kind));
       ("kernel", Json.Int s.kernel);
       ("run", Json.Int (run_offset + s.run));
       ("start", Json.Int s.start);
       ("stop", Json.Int s.stop);
     ]
    @ opt_int "parent" s.parent
    @ opt_int "tid" s.tid)

let slot = function
  | "id" -> 0
  | "kind" -> 1
  | "kernel" -> 2
  | "start" -> 3
  | "parent" -> 4
  | "tid" -> 5
  | "run" -> 6
  | "stop" -> 7
  | _ -> -1

let of_json = function
  | Json.Obj fields -> (
      match Fields.read ~slot 8 fields with
      | [| id; Json.Str kind; kernel; start; parent; tid; run; stop |]
        when Fields.is_int id && Fields.is_int kernel && Fields.is_int start ->
          Some
            {
              id = Fields.int ~default:0 id;
              parent = Fields.int_opt parent;
              kind = kind_of_name kind;
              kernel = Fields.int ~default:0 kernel;
              tid = Fields.int_opt tid;
              run = Fields.int ~default:0 run;
              start = Fields.int ~default:0 start;
              stop = Fields.int ~default:(-1) stop;
            }
      | _ -> None)
  | _ -> None
