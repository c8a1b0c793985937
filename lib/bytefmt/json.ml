(* The one JSON writer: the chaos drill's artifact and the lint reports.
   The repo deliberately carries no JSON dependency. *)

type t =
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* One layout: every non-empty array or object puts its members on their
   own lines, indented two spaces per level. *)
let members buf indent opening closing write_one = function
  | [] ->
      Buffer.add_char buf opening;
      Buffer.add_char buf closing
  | l ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_char buf opening;
      List.iteri
        (fun i m ->
          Buffer.add_string buf (if i = 0 then "\n" else ",\n");
          Buffer.add_string buf pad;
          write_one m)
        l;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_char buf closing

let rec write buf indent = function
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float x ->
      Buffer.add_string buf
        (if Float.is_finite x then Printf.sprintf "%.6g" x else "null")
  | Str s -> add_escaped buf s
  | Arr items -> members buf indent '[' ']' (write buf (indent + 2)) items
  | Obj fields ->
      members buf indent '{' '}'
        (fun (k, v) ->
          add_escaped buf k;
          Buffer.add_string buf ": ";
          write buf (indent + 2) v)
        fields

let to_string t =
  let buf = Buffer.create 4096 in
  write buf 0 t;
  Buffer.contents buf
