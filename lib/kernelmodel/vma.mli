(** Virtual memory areas and per-process address-space layout.

    Addresses and lengths are in bytes and must be page-aligned (4 KiB).
    The structure is a sorted interval map supporting the mmap family with
    Linux semantics relevant to the paper: hole-finding allocation, fixed
    mappings, partial unmap with VMA splitting, and mprotect with
    splitting. Layout equality across replicas is what Popcorn's address
    space consistency protocol maintains. *)

type prot = { read : bool; write : bool; exec : bool }

val prot_rw : prot
val prot_r : prot
val prot_rx : prot

type kind = Anon | Stack | Heap | File of string

type vma = {
  start : int;
  len : int;  (** bytes; always > 0 and page-aligned. *)
  prot : prot;
  kind : kind;
}

val vma_end : vma -> int
(** One past the last byte. *)

type t

val page_size : int

val create : unit -> t
(** Empty layout; anonymous mappings are placed from a conventional mmap
    base upward. *)

val map :
  t ->
  ?fixed:int ->
  len:int ->
  prot:prot ->
  kind:kind ->
  unit ->
  (vma, string) result
(** Allocate a region. With [fixed], the exact range must not overlap any
    existing mapping (MAP_FIXED_NOREPLACE semantics). Errors on bad
    alignment, zero length, or exhaustion. *)

val unmap : t -> start:int -> len:int -> (unit, string) result
(** Remove every mapped page in the range, splitting straddling VMAs; the
    range may cover holes (like munmap). *)

val protect : t -> start:int -> len:int -> prot:prot -> (unit, string) result
(** Change protection; errors if any page in the range is unmapped. *)

val find : t -> int -> vma option
(** VMA containing the address, if any. *)

val vmas : t -> vma list
(** Ascending by start; adjacent compatible VMAs are not merged (Linux only
    merges anonymous VMAs with identical attributes; we keep splits visible
    because the consistency protocol replicates them as-is). *)

val count : t -> int
val mapped_bytes : t -> int
val equal_layout : t -> t -> bool
val pp : Format.formatter -> t -> unit
