(** The one binary format behind wire messages, WAL records and
    conformance traces: zigzag LEB128 varints, varint-length-prefixed
    strings and lists, 8-byte little-endian IEEE 754 floats. Writers
    append to a shared [Buffer]; readers walk a bounds-checked cursor and
    raise {!Bad} on any truncated, overlong or negative-length field. *)

exception Bad of { pos : int; msg : string }
(** A malformed input: [msg] says what, [pos] is the cursor's byte
    offset when the read failed. *)

type cur = { s : string; mutable pos : int }

val cur : ?pos:int -> string -> cur
(** A cursor over [s], starting at [pos] (default 0). *)

val bad : cur -> string -> 'a
(** Raise {!Bad} at the cursor's position. *)

val add_varint : Buffer.t -> int -> unit
val add_str : Buffer.t -> string -> unit
val add_float : Buffer.t -> float -> unit
val add_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit

val read_char : cur -> char
val read_varint : cur -> int
val read_str : cur -> string
val read_float : cur -> float
val read_list : (cur -> 'a) -> cur -> 'a list

val whole : ?pos:int -> string -> (cur -> 'a) -> string -> ('a, string) result
(** [whole name read s] runs [read] from [pos] (default 0) and requires
    every byte of [s] consumed; {!Bad} and trailing bytes become
    [Error]. *)

val streaming :
  ?pos:int -> (cur -> 'a) -> string -> ('a * string, string) result
(** Runs a reader from [pos] (default 0) and returns the unread tail. *)
