(** Growable int arrays: the CDCL solver's clause lists (crefs), trail
    and conflict-analysis buffers. Ints only, so no store pays the
    write barrier. *)

type t

val create : unit -> t
val size : t -> int
val is_empty : t -> bool

val get : t -> int -> int
(** Raises [Invalid_argument "Vec.get"] out of range, as does {!set}. *)

val set : t -> int -> int -> unit
val push : t -> int -> unit

val pop : t -> int
(** Removes and returns the last element. Raises [Invalid_argument] when
    empty. *)

val shrink : t -> int -> unit
(** [shrink v n] drops elements so that [size v = n] (capacity is
    retained). *)

val iter : (int -> unit) -> t -> unit
val sort : (int -> int -> int) -> t -> unit
