(* Structured lint diagnostics.

   Every pass reports findings through this one type so the CLI can render
   them uniformly (human or JSON) and the CI gate can count them without
   parsing prose. [code] is the stable machine-readable identifier tests
   and fixtures key on; [message] is for humans and may change freely. *)

type severity = Error | Warning

type t = {
  pass : string;  (* which analysis produced this *)
  target : string;  (* spec / scenario / table under analysis *)
  severity : severity;
  code : string;  (* stable finding identifier, e.g. "dead-letter" *)
  site : string option;  (* node path, header, or file:line *)
  message : string;
}

let v ?site ?(severity = Error) ~pass ~target ~code fmt =
  Format.kasprintf
    (fun message -> { pass; target; severity; code; site; message })
    fmt

let severity_string = function Error -> "error" | Warning -> "warning"

let is_error d = d.severity = Error

let pp ppf d =
  Format.fprintf ppf "%s: %s [%s/%s]%a: %s" d.target
    (severity_string d.severity)
    d.pass d.code
    (fun ppf -> function
      | None -> ()
      | Some s -> Format.fprintf ppf " at %s" s)
    d.site d.message

let to_json d =
  let open Bytefmt.Json in
  Obj
    ([
       ("target", Str d.target);
       ("pass", Str d.pass);
       ("code", Str d.code);
       ("severity", Str (severity_string d.severity));
     ]
    @ (match d.site with None -> [] | Some s -> [ ("site", Str s) ])
    @ [ ("message", Str d.message) ])
