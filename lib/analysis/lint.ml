(* Pass orchestration and reporting.

   One [report] per lint target; rendering is either human-readable text
   or a JSON array (consumed by the CI gate and archived as an artifact). *)

type report = { target : string; kind : string; findings : Diag.t list }

let run_target (t : Registry.target) =
  { target = t.Registry.name; kind = t.Registry.kind; findings = t.Registry.run () }

let run_all () = List.map run_target (Registry.all ())

let total_findings reports =
  List.fold_left (fun n r -> n + List.length r.findings) 0 reports

let pp_human ppf reports =
  List.iter
    (fun r ->
      match r.findings with
      | [] -> Format.fprintf ppf "%-24s %-8s clean@." r.target r.kind
      | fs ->
          Format.fprintf ppf "%-24s %-8s %d finding%s@." r.target r.kind
            (List.length fs)
            (if List.length fs = 1 then "" else "s");
          List.iter (fun d -> Format.fprintf ppf "  %a@." Diag.pp d) fs)
    reports;
  let n = total_findings reports in
  Format.fprintf ppf "%d target%s, %d finding%s@."
    (List.length reports)
    (if List.length reports = 1 then "" else "s")
    n
    (if n = 1 then "" else "s")

let to_json reports =
  let open Bytefmt.Json in
  let target_json r =
    Obj
      [
        ("target", Str r.target);
        ("kind", Str r.kind);
        ("findings", Arr (List.map Diag.to_json r.findings));
      ]
  in
  to_string
    (Obj
       [
         ("targets", Arr (List.map target_json reports));
         ("total_findings", Int (total_findings reports));
       ])

(* Selftest: every fixture must fire every code it promises — and, to
   keep fixtures honest, must not fire codes from unrelated passes. *)
type selftest_outcome = {
  fixture : string;
  missing : string list;  (* promised codes that did not fire *)
  fired : string list;  (* codes that actually fired *)
}

let selftest () =
  List.map
    (fun (f : Fixtures.t) ->
      let fired =
        List.sort_uniq String.compare
          (List.map (fun (d : Diag.t) -> d.Diag.code) (f.Fixtures.run ()))
      in
      let missing =
        List.filter (fun c -> not (List.mem c fired)) f.Fixtures.expect
      in
      { fixture = f.Fixtures.name; missing; fired })
    (Fixtures.all @ Impl_fixtures.all)

let selftest_ok outcomes = List.for_all (fun o -> o.missing = []) outcomes

let selftest_to_json outcomes =
  let open Bytefmt.Json in
  let codes l = Arr (List.map (fun c -> Str c) l) in
  let one o =
    Obj
      [
        ("fixture", Str o.fixture);
        ("ok", Bool (o.missing = []));
        ("fired", codes o.fired);
        ("missing", codes o.missing);
      ]
  in
  to_string (Obj [ ("fixtures", Arr (List.map one outcomes)) ])
