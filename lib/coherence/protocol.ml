(** Which page-coherence protocol a cluster runs, and where each page's
    directory shard lives under it.

    [Origin_home] is the paper's design: every page of a process is homed
    at the process's origin kernel, so faults from the origin are
    message-free but all remote coherence traffic serializes through one
    node. [Sharded_dir] hashes each VPN to a home kernel so directory
    load and fault-lock contention spread across the cluster, at the cost
    of making even origin-local pages remote with probability
    (nkernels-1)/nkernels. *)

type t = Origin_home | Sharded_dir

let all = [ Origin_home; Sharded_dir ]
let to_string = function Origin_home -> "origin" | Sharded_dir -> "sharded"

(* SplitMix64 finalizer over the VPN. Adjacent pages of a hot region must
   scatter across home kernels or the shard assignment degenerates into
   origin-home with extra hops; a multiplicative hash alone is not enough
   because VPNs are tiny and consecutive. *)
let mix vpn =
  let open Int64 in
  let z = mul (of_int (vpn + 1)) 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  Stdlib.( land ) (to_int (logxor z (shift_right_logical z 31))) Stdlib.max_int

(** Home kernel of [vpn] for a process originating at [origin]. *)
let home t ~origin ~nkernels ~vpn =
  match t with
  | Origin_home -> origin
  | Sharded_dir -> if nkernels <= 1 then origin else mix vpn mod nkernels
