(** Page-fault classification, shared by all OS models.

    The fault handler's first job is identical in SMP Linux and Popcorn:
    look up the faulting address in the (local replica of the) VMA tree and
    decide whether this is a legal fault to service or a segfault. What
    happens next — allocate locally vs. fetch the page from its owner
    kernel — is where the models differ. *)

type access = Read | Write

type classification =
  | Segv  (** no VMA, or protection forbids the access. *)
  | Minor  (** VMA present, no translation: demand-zero / first touch. *)
  | Cow_or_upgrade
      (** translation present but read-only and the access is a write;
          in Popcorn this is the "page owned elsewhere" case. *)
  | Present  (** translation already valid for this access: spurious. *)

val classify :
  Vma.t -> Page_table.t -> addr:int -> access:access -> classification

val pp : Format.formatter -> classification -> unit
