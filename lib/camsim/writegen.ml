(* Write generations of one flat backing store. A clock advances on
   every write; each row remembers the clock of its last write, and a
   whole-store write (one whose rows the writer does not name) stamps
   [all]. A reader that compared a window at clock [seen] can then tell
   in O(rows) whether any element of the window may have changed since,
   without reading the elements. *)

type t = {
  back : float array;
  row_len : int;
  stamps : int array;
  mutable all : int;
  mutable clock : int;
}

let create back ~row_len =
  if row_len < 1 then invalid_arg "Writegen.create: row_len must be >= 1";
  {
    back;
    row_len;
    stamps = Array.make ((Array.length back + row_len - 1) / row_len) 0;
    all = 0;
    clock = 0;
  }

let none = { back = [||]; row_len = 1; stamps = [||]; all = 0; clock = 0 }
let backing t = t.back
let now t = t.clock

let touch_row t r =
  t.clock <- t.clock + 1;
  t.stamps.(r) <- t.clock

let touch_all t =
  t.clock <- t.clock + 1;
  t.all <- t.clock

let unchanged_since t ~seen ~lo ~hi =
  lo >= 0
  && hi < Array.length t.back
  && t.all <= seen
  &&
  let r = ref (lo / t.row_len) and last = hi / t.row_len in
  while !r <= last && Array.unsafe_get t.stamps !r <= seen do
    incr r
  done;
  !r > last
