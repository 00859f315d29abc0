(** ASCII tables and series for bench output, shaped like the paper's tables
    and figures (a "figure" is emitted as a data series, one row per x). *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit
(** Must match the column count. *)

val title : t -> string
val columns : t -> string list

val rows : t -> string list list
(** Rows in insertion order. *)

val render : t -> string
(** Boxed, aligned table with the title on top. *)

val print : t -> unit
(** [render] to stdout. *)

val fmt_ns : float -> string
(** Adaptive ns/us/ms rendering of a nanosecond quantity. *)

val fmt_rate : float -> string
(** Adaptive ops/s rendering (K/M suffixes). *)

val series :
  title:string -> x_label:string -> (string * (float * float) list) list -> t
(** [series ~title ~x_label curves] builds a table with one row per distinct
    x and one column per named curve — the textual equivalent of a figure
    with several lines. Missing points render as "-". *)
