(** Write generations of one flat backing store.

    A serving session's stored rows live in one flat [float array]
    that every batch hands to the simulator again (see
    {!Simulator.write_view}). Re-reading a window to learn that it did
    not change costs O(rows x cols) per batch. A generation record
    answers the same question in O(rows): a clock advances on every
    write, each row of the backing remembers the clock of its last
    write, and a write whose rows the writer does not name stamps the
    whole backing. Every writer of the backing must report through
    {!touch_row} or {!touch_all}; a reader that compared a window at
    clock {!now} may skip the next compare while {!unchanged_since}
    holds. *)

type t

val create : float array -> row_len:int -> t
(** Generations for [back], whose row [r] covers flat elements
    [r * row_len .. (r + 1) * row_len - 1]. Every row starts unwritten
    at clock 0. @raise Invalid_argument when [row_len < 1]. *)

val none : t
(** A record that tracks no backing; a placeholder that is physically
    distinct from every {!create}d one. *)

val backing : t -> float array
val now : t -> int

val touch_row : t -> int -> unit
(** Record a write into row [r]. *)

val touch_all : t -> unit
(** Record a write anywhere in the backing. *)

val unchanged_since : t -> seen:int -> lo:int -> hi:int -> bool
(** [true] when no write recorded after clock [seen] touched a row that
    holds any flat element in [lo, hi] ([false] when the range leaves
    the backing). *)
