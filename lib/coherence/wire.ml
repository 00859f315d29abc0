(** Message vocabulary of the coherence protocols. The cluster's payload
    type embeds [t] as a single constructor; requests are routed to
    [Popcorn.Page_coherence.handle], responses complete the matching RPC
    ticket on the receiving kernel (see [resp_ticket]).

    Sizes are body bytes; the transport header is added by the embedding
    payload's size function. *)

type pid = Kernelmodel.Ids.pid

type grant = {
  version : int;  (** content version shipped with the page. *)
  writable : bool;
  from_kernel : int;  (** kernel that supplied the data (for cost model). *)
  carries_data : bool;
      (** false when the requester already holds current data (permission
          upgrade) — the response is then header-sized, not page-sized. *)
  ack : int;
      (** ticket at the home kernel to acknowledge once the grant is
          installed; the home holds the page's fault lock until then. 0
          for home-local grants, which install under the lock directly. *)
}

type req =
  | Fault of { ticket : int; pid : pid; vpn : int; access : Kernelmodel.Fault.access }
      (** faulting kernel -> home: serve a fault against the directory. *)
  | Pull of { ticket : int; pid : pid; vpn : int }
      (** home asks the current writer to hand the page back. *)
  | Invalidate of { pid : pid; vpn : int; ack : int }
      (** home asks a reader to drop its read-only copy. *)
  | Downgrade of { pid : pid; vpn : int; ack : int }
      (** home asks the writer to demote its copy to read-only. *)
  | Drop_range of { pid : pid; start : int; len : int; ack : int }
      (** munmap batch: drop every directory entry in the byte range whose
          home is the receiving kernel (sharded protocol only). *)

type resp =
  | Grant of { ticket : int; result : (grant, string) result }
  | Pulled of { ticket : int; version : int }
  | Ack of { ticket : int }

type t = Req of req | Resp of resp

let size = function
  | Req (Fault _) -> 16
  | Req (Pull _) -> 8
  | Req (Invalidate _) | Req (Downgrade _) -> 8
  | Req (Drop_range _) -> 24
  | Resp (Grant { result = Ok g; _ }) -> if g.carries_data then 4096 else 16
  | Resp (Grant { result = Error _; _ }) -> 0
  | Resp (Pulled _) -> 4096
  | Resp (Ack _) -> 0

let resp_ticket = function
  | Grant { ticket; _ } | Pulled { ticket; _ } | Ack { ticket } -> ticket
