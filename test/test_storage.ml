(* Tests for the storage engine: B+-tree and AVL structural invariants
   (qcheck vs a Map model), diverse backends, database operations and
   transactions, the lock manager, SQL lexer/parser/executor, and the
   state-transfer dump/load path. *)

module Value = Storage.Value
module Schema = Storage.Schema
module Btree = Storage.Btree
module Avl = Storage.Avl
module Store = Storage.Store
module Database = Storage.Database
module Lock = Storage.Lock
module Sql = Storage.Sql_exec

(* ---------- B+-tree ---------- *)

type op = Ins of int * int | Del of int

let gen_ops =
  QCheck.Gen.(
    list_size (0 -- 400)
      (frequency
         [
           (3, map2 (fun k v -> Ins (k mod 97, v)) (int_bound 1000) (int_bound 1000));
           (2, map (fun k -> Del (k mod 97)) (int_bound 1000));
         ]))

let arb_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Ins (k, v) -> Printf.sprintf "i%d=%d" k v
             | Del k -> Printf.sprintf "d%d" k)
           ops))
    gen_ops

module Imap = Map.Make (Int)

let apply_btree ops =
  List.fold_left
    (fun (t, m) -> function
      | Ins (k, v) -> (Btree.insert t k v, Imap.add k v m)
      | Del k -> (Btree.remove t k, Imap.remove k m))
    (Btree.create ~cmp:Int.compare, Imap.empty)
    ops

let prop_btree_model =
  QCheck.Test.make ~name:"btree ≡ Map model" ~count:300 arb_ops (fun ops ->
      let t, m = apply_btree ops in
      Btree.cardinal t = Imap.cardinal m
      && Imap.for_all (fun k v -> Btree.find t k = Some v) m
      && Btree.fold (fun k v acc -> acc && Imap.find_opt k m = Some v) t true)

let prop_btree_invariants =
  QCheck.Test.make ~name:"btree structural invariants" ~count:300 arb_ops
    (fun ops ->
      let t, _ = apply_btree ops in
      match Btree.check t with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "invariant broken: %s" e)

let prop_btree_iter_sorted =
  QCheck.Test.make ~name:"btree iterates in key order" ~count:200 arb_ops
    (fun ops ->
      let t, _ = apply_btree ops in
      let keys = ref [] in
      Btree.iter (fun k _ -> keys := k :: !keys) t;
      let keys = List.rev !keys in
      List.sort_uniq compare keys = keys)

let test_btree_bulk () =
  (* Large sequential + reverse insertions force deep splits. *)
  let t = ref (Btree.create ~cmp:Int.compare) in
  for i = 0 to 4999 do
    t := Btree.insert !t i (i * 2)
  done;
  for i = 9999 downto 5000 do
    t := Btree.insert !t i (i * 2)
  done;
  Alcotest.(check int) "cardinal" 10_000 (Btree.cardinal !t);
  Alcotest.(check bool) "height logarithmic" true (Btree.height !t <= 6);
  (match Btree.check !t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  for i = 0 to 9999 do
    if i mod 3 <> 0 then t := Btree.remove !t i
  done;
  (match Btree.check !t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "cardinal after deletes" 3334 (Btree.cardinal !t);
  Alcotest.(check (option int)) "survivor" (Some 18) (Btree.find !t 9)

let test_btree_range () =
  let t = ref (Btree.create ~cmp:Int.compare) in
  for i = 0 to 99 do
    t := Btree.insert !t i i
  done;
  let got = ref [] in
  Btree.iter_range ~lo:(Some 10) ~hi:(Some 20) (fun k _ -> got := k :: !got) !t;
  Alcotest.(check (list int)) "inclusive range"
    (List.init 11 (fun i -> 10 + i))
    (List.rev !got);
  let got = ref [] in
  Btree.iter_range ~lo:None ~hi:(Some 2) (fun k _ -> got := k :: !got) !t;
  Alcotest.(check (list int)) "open low" [ 0; 1; 2 ] (List.rev !got)

let test_btree_minmax () =
  let t =
    List.fold_left
      (fun t k -> Btree.insert t k (k * 10))
      (Btree.create ~cmp:Int.compare)
      [ 5; 1; 9; 3 ]
  in
  Alcotest.(check (option (pair int int))) "min" (Some (1, 10)) (Btree.min_binding t);
  Alcotest.(check (option (pair int int))) "max" (Some (9, 90)) (Btree.max_binding t);
  Alcotest.(check (option (pair int int))) "empty min" None
    (Btree.min_binding (Btree.create ~cmp:Int.compare))

(* ---------- AVL ---------- *)

let apply_avl ops =
  List.fold_left
    (fun (t, m) -> function
      | Ins (k, v) -> (Avl.insert t k v, Imap.add k v m)
      | Del k -> (Avl.remove t k, Imap.remove k m))
    (Avl.create ~cmp:Int.compare, Imap.empty)
    ops

let prop_avl_model =
  QCheck.Test.make ~name:"avl ≡ Map model" ~count:300 arb_ops (fun ops ->
      let t, m = apply_avl ops in
      Avl.cardinal t = Imap.cardinal m
      && Imap.for_all (fun k v -> Avl.find t k = Some v) m)

let prop_avl_balanced =
  QCheck.Test.make ~name:"avl stays balanced and ordered" ~count:300 arb_ops
    (fun ops ->
      let t, _ = apply_avl ops in
      match Avl.check t with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "avl: %s" e)

(* ---------- Backends behave identically ---------- *)

let prop_backends_agree =
  QCheck.Test.make ~name:"hazel/hickory/dogwood agree" ~count:150 arb_ops
    (fun ops ->
      let run kind =
        let s = Store.create kind in
        List.iter
          (function
            | Ins (k, v) ->
                s.Store.insert [ Value.Int k ] [| Value.Int k; Value.Int v |]
            | Del k -> ignore (s.Store.delete [ Value.Int k ]))
          ops;
        let out = ref [] in
        s.Store.iter_sorted (fun key row -> out := (key, row) :: !out);
        (s.Store.count (), List.rev !out)
      in
      let h = run Store.Hazel in
      let b = run Store.Hickory in
      let a = run Store.Dogwood in
      h = b && b = a)

(* ---------- Database ---------- *)

let bank_schema =
  Schema.v ~table:"T"
    ~columns:[ ("ID", Value.T_int); ("V", Value.T_int) ]
    ~pkey:[ "ID" ]

let mk_db () =
  let db = Database.create Store.Hazel in
  (match Database.create_table db bank_schema with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  db

let test_db_insert_get () =
  let db = mk_db () in
  Alcotest.(check (result unit string)) "insert"
    (Ok ())
    (Database.insert db "T" [| Value.Int 1; Value.Int 10 |]);
  Alcotest.(check bool) "dup key rejected" true
    (Result.is_error (Database.insert db "T" [| Value.Int 1; Value.Int 99 |]));
  match Database.get db "T" [ Value.Int 1 ] with
  | Some row -> Alcotest.(check bool) "value" true (row.(1) = Value.Int 10)
  | None -> Alcotest.fail "row missing"

let test_db_schema_checks () =
  let db = mk_db () in
  Alcotest.(check bool) "arity" true
    (Result.is_error (Database.insert db "T" [| Value.Int 1 |]));
  Alcotest.(check bool) "type" true
    (Result.is_error (Database.insert db "T" [| Value.Text "x"; Value.Int 0 |]));
  Alcotest.(check bool) "null pk" true
    (Result.is_error (Database.insert db "T" [| Value.Null; Value.Int 0 |]));
  Alcotest.(check bool) "unknown table" true
    (Result.is_error (Database.insert db "NOPE" [| Value.Int 1; Value.Int 2 |]))

let test_db_update_delete () =
  let db = mk_db () in
  ignore (Database.insert db "T" [| Value.Int 1; Value.Int 10 |]);
  (match
     Database.update db "T" [ Value.Int 1 ] (fun r ->
         r.(1) <- Value.Int 20;
         r)
   with
  | Ok true -> ()
  | _ -> Alcotest.fail "update failed");
  Alcotest.(check bool) "pk change rejected" true
    (Result.is_error
       (Database.update db "T" [ Value.Int 1 ] (fun r ->
            r.(0) <- Value.Int 9;
            r)));
  Alcotest.(check (result bool string)) "delete" (Ok true)
    (Database.delete db "T" [ Value.Int 1 ]);
  Alcotest.(check (result bool string)) "delete absent" (Ok false)
    (Database.delete db "T" [ Value.Int 1 ])

let test_db_rollback () =
  let db = mk_db () in
  ignore (Database.insert db "T" [| Value.Int 1; Value.Int 10 |]);
  Database.begin_txn db;
  ignore (Database.insert db "T" [| Value.Int 2; Value.Int 20 |]);
  ignore
    (Database.update db "T" [ Value.Int 1 ] (fun r ->
         r.(1) <- Value.Int 99;
         r));
  ignore (Database.delete db "T" [ Value.Int 1 ]);
  Database.rollback db;
  Alcotest.(check int) "row count restored" 1 (Database.row_count db "T");
  match Database.get db "T" [ Value.Int 1 ] with
  | Some row -> Alcotest.(check bool) "value restored" true (row.(1) = Value.Int 10)
  | None -> Alcotest.fail "row 1 lost by rollback"

let prop_rollback_restores_hash =
  QCheck.Test.make ~name:"rollback restores content hash" ~count:150
    QCheck.(list_of_size Gen.(0 -- 30) (pair (int_bound 20) (int_bound 100)))
    (fun kvs ->
      let db = mk_db () in
      for i = 0 to 9 do
        ignore (Database.insert db "T" [| Value.Int i; Value.Int i |])
      done;
      let before = Database.content_hash db in
      Database.begin_txn db;
      List.iter
        (fun (k, v) ->
          ignore (Database.upsert db "T" [| Value.Int k; Value.Int v |]);
          if v mod 3 = 0 then ignore (Database.delete db "T" [ Value.Int k ]))
        kvs;
      Database.rollback db;
      Database.content_hash db = before)

let test_db_dump_load_roundtrip () =
  let src = Database.create Store.Hickory in
  ignore (Database.create_table src bank_schema);
  for i = 0 to 99 do
    ignore (Database.insert src "T" [| Value.Int i; Value.Int (i * i) |])
  done;
  let dst = Database.create Store.Dogwood in
  ignore (Database.create_table dst bank_schema);
  (* Pre-populate with junk that the snapshot must not resurrect. *)
  ignore (Database.insert dst "T" [| Value.Int 500; Value.Int 1 |]);
  Database.clear_data dst;
  (match Database.load_rows dst (Database.dump src) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "row count" 100 (Database.row_count dst "T");
  Alcotest.(check int) "content hash equal across backends"
    (Database.content_hash src) (Database.content_hash dst)

let test_db_cost_accounting () =
  let db = mk_db () in
  ignore (Database.take_cost db);
  ignore (Database.insert db "T" [| Value.Int 1; Value.Int 1 |]);
  let c1 = Database.take_cost db in
  Alcotest.(check bool) "write charged" true (c1 > 0.0);
  Alcotest.(check (float 0.0)) "reset" 0.0 (Database.take_cost db);
  ignore (Database.get db "T" [ Value.Int 1 ]);
  let c2 = Database.take_cost db in
  Alcotest.(check bool) "read cheaper than write" true (c2 < c1)

(* ---------- Secondary indexes ---------- *)

let people_schema =
  Schema.v ~table:"P"
    ~columns:[ ("ID", Value.T_int); ("CITY", Value.T_text); ("AGE", Value.T_int) ]
    ~pkey:[ "ID" ]

let mk_people () =
  let db = Database.create Store.Hazel in
  (match Database.create_table db people_schema with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let cities = [| "oslo"; "bern"; "oslo"; "kyiv"; "bern"; "oslo" |] in
  Array.iteri
    (fun i city ->
      ignore
        (Database.insert db "P"
           [| Value.Int i; Value.Text city; Value.Int (20 + i) |]))
    cities;
  db

let rows_sorted rows = List.sort compare rows

let test_index_lookup () =
  let db = mk_people () in
  (match Database.create_index db "P" "CITY" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Database.lookup_eq db "P" ~column:"CITY" ~value:(Value.Text "oslo") with
  | Ok rows ->
      Alcotest.(check int) "three oslo rows" 3 (List.length rows);
      Alcotest.(check bool) "all oslo" true
        (List.for_all (fun r -> r.(1) = Value.Text "oslo") rows)
  | Error e -> Alcotest.fail e

let test_index_maintained_by_writes () =
  let db = mk_people () in
  ignore (Database.create_index db "P" "CITY");
  ignore
    (Database.update db "P" [ Value.Int 0 ] (fun r ->
         r.(1) <- Value.Text "kyiv";
         r));
  ignore (Database.delete db "P" [ Value.Int 3 ]);
  ignore (Database.insert db "P" [| Value.Int 9; Value.Text "kyiv"; Value.Int 50 |]);
  let lookup city =
    match Database.lookup_eq db "P" ~column:"CITY" ~value:(Value.Text city) with
    | Ok rows -> List.length rows
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "oslo shrank" 2 (lookup "oslo");
  Alcotest.(check int) "kyiv = update + insert - delete" 2 (lookup "kyiv")

let test_index_maintained_by_rollback () =
  let db = mk_people () in
  ignore (Database.create_index db "P" "CITY");
  let before =
    match Database.lookup_eq db "P" ~column:"CITY" ~value:(Value.Text "bern") with
    | Ok rows -> rows_sorted rows
    | Error e -> Alcotest.fail e
  in
  Database.begin_txn db;
  ignore
    (Database.update db "P" [ Value.Int 1 ] (fun r ->
         r.(1) <- Value.Text "rome";
         r));
  ignore (Database.delete db "P" [ Value.Int 4 ]);
  ignore (Database.insert db "P" [| Value.Int 7; Value.Text "bern"; Value.Int 1 |]);
  Database.rollback db;
  (match Database.lookup_eq db "P" ~column:"CITY" ~value:(Value.Text "bern") with
  | Ok rows -> Alcotest.(check bool) "index restored" true (rows_sorted rows = before)
  | Error e -> Alcotest.fail e);
  match Database.lookup_eq db "P" ~column:"CITY" ~value:(Value.Text "rome") with
  | Ok rows -> Alcotest.(check int) "phantom gone" 0 (List.length rows)
  | Error e -> Alcotest.fail e

let prop_index_agrees_with_scan =
  QCheck.Test.make ~name:"index lookup ≡ filtered scan" ~count:150
    QCheck.(list_of_size Gen.(0 -- 60) (pair (int_bound 30) (int_bound 5)))
    (fun kvs ->
      let db = Database.create Store.Hickory in
      ignore (Database.create_table db people_schema);
      ignore (Database.create_index db "P" "AGE");
      List.iter
        (fun (id, age) ->
          match Database.upsert db "P" [| Value.Int id; Value.Text "x"; Value.Int age |] with
          | Ok () | Error _ -> ())
        kvs;
      List.for_all
        (fun age ->
          let via_index =
            match
              Database.lookup_eq db "P" ~column:"AGE" ~value:(Value.Int age)
            with
            | Ok rows -> rows_sorted rows
            | Error _ -> []
          in
          let via_scan =
            match Database.scan db "P" ~pred:(fun r -> r.(2) = Value.Int age) with
            | Ok rows -> rows_sorted rows
            | Error _ -> []
          in
          via_index = via_scan)
        [ 0; 1; 2; 3; 4; 5 ])

(* The index walk against its reference, on every backend: after random
   writes (indexed column changed or not), rolled-back transactions and
   snapshot reloads, (1) a walk with a random prefix, start and stop point
   returns the rows a filtered full scan says it should, and (2) each
   index answers every value prefix with the same rows, at the same
   visit cost, as an index freshly built over the same rows. (2) is the
   guard on [raw_insert] leaving entries alone when their column did not
   change: a stale entry shows as a wrong row or an extra charged visit. *)

let walk_schema =
  Schema.v ~table:"W"
    ~columns:
      [
        ("A", Value.T_int);
        ("B", Value.T_int);
        ("G", Value.T_int);
        ("H", Value.T_int);
        ("V", Value.T_int);
      ]
    ~pkey:[ "A"; "B" ]

let walk_indexes = [ ("G", 2); ("H", 3) ]

type wop =
  | W_insert of int * int * int * int
  | W_upsert of int * int * int * int
  | W_update of int * int * int * int  (* key, column 2..4, value *)
  | W_delete of int * int
  | W_rollback of wop list
  | W_reload

let rec wop_to_string = function
  | W_insert (a, b, g, h) -> Printf.sprintf "ins(%d,%d,%d,%d)" a b g h
  | W_upsert (a, b, g, h) -> Printf.sprintf "ups(%d,%d,%d,%d)" a b g h
  | W_update (a, b, c, v) -> Printf.sprintf "upd(%d,%d).%d=%d" a b c v
  | W_delete (a, b) -> Printf.sprintf "del(%d,%d)" a b
  | W_rollback ops ->
      "rollback[" ^ String.concat ";" (List.map wop_to_string ops) ^ "]"
  | W_reload -> "reload"

let gen_wops =
  let open QCheck.Gen in
  let small = int_bound 4 in
  let flat =
    frequency
      [
        (3, map (fun (a, b, g, h) -> W_insert (a, b, g, h)) (quad small small small small));
        (2, map (fun (a, b, g, h) -> W_upsert (a, b, g, h)) (quad small small small small));
        ( 4,
          map
            (fun (a, b, c, v) -> W_update (a, b, 2 + c, v))
            (quad small small (int_bound 2) small) );
        (2, map2 (fun a b -> W_delete (a, b)) small small);
      ]
  in
  list_size (0 -- 40)
    (frequency
       [
         (10, flat);
         (1, map (fun ops -> W_rollback ops) (list_size (0 -- 8) flat));
         (1, return W_reload);
       ])

type walk_query = {
  q_col : string * int;
  q_prefix : int list;
  q_lo : int list;
  q_stop : int;  (* rows taken before [f] says stop; 0 = never *)
}

let gen_queries =
  let open QCheck.Gen in
  let key = list_size (0 -- 3) (int_bound 4) in
  list_size (1 -- 8)
    (map
       (fun (col, prefix, lo, stop) ->
         { q_col = col; q_prefix = prefix; q_lo = lo; q_stop = stop })
       (quad (oneofl walk_indexes) key key (int_bound 4)))

let query_to_string q =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "%s prefix [%s] lo [%s] stop %d" (fst q.q_col)
    (ints q.q_prefix) (ints q.q_lo) q.q_stop

let arb_walk =
  QCheck.make
    ~print:(fun (ops, qs) ->
      String.concat ";" (List.map wop_to_string ops)
      ^ " / "
      ^ String.concat "; " (List.map query_to_string qs))
    QCheck.Gen.(pair gen_wops gen_queries)

let rec apply_wop db op =
  let vi = Value.(fun i -> Int i) in
  match op with
  | W_insert (a, b, g, h) ->
      ignore (Database.insert db "W" [| vi a; vi b; vi g; vi h; vi 0 |])
  | W_upsert (a, b, g, h) ->
      ignore (Database.upsert db "W" [| vi a; vi b; vi g; vi h; vi 1 |])
  | W_update (a, b, c, v) ->
      ignore
        (Database.update db "W" [ vi a; vi b ] (fun r ->
             r.(c) <- vi v;
             r))
  | W_delete (a, b) -> ignore (Database.delete db "W" [ vi a; vi b ])
  | W_rollback ops ->
      Database.begin_txn db;
      List.iter (apply_wop db) ops;
      Database.rollback db
  | W_reload ->
      let rows = Database.dump db in
      Database.clear_data db;
      ignore (Database.load_rows db rows)

let walk_db kind ~indexed =
  let db = Database.create kind in
  ignore (Database.create_table db walk_schema);
  if indexed then
    List.iter (fun (c, _) -> ignore (Database.create_index db "W" c)) walk_indexes;
  db

let rec has_prefix p k =
  match (p, k) with
  | [], _ -> true
  | x :: p, y :: k -> Value.compare x y = 0 && has_prefix p k
  | _ :: _, [] -> false

(* Rows of one walk, and what it cost. *)
let walked db (column, _) ~prefix ?lo stop =
  ignore (Database.take_cost db);
  let out = ref [] in
  match
    Database.index_walk db "W" ~column ~prefix ?lo (fun row ->
        out := row :: !out;
        stop = 0 || List.length !out < stop)
  with
  | Ok () -> Some (List.rev !out, Database.take_cost db)
  | Error _ -> None

let prop_index_walk =
  QCheck.Test.make ~name:"index walk ≡ filtered scan ≡ fresh index" ~count:200
    arb_walk (fun (ops, queries) ->
      List.for_all
        (fun kind ->
          let db = walk_db kind ~indexed:true in
          List.iter (apply_wop db) ops;
          let rows =
            match Database.scan db "W" ~pred:(fun _ -> true) with
            | Ok rows -> rows
            | Error e -> QCheck.Test.fail_report e
          in
          let vals = List.map (fun i -> Value.Int i) in
          let by_scan q =
            let _, col = q.q_col in
            let prefix = vals q.q_prefix and lo = vals q.q_lo in
            let lo = if Store.key_compare lo prefix < 0 then prefix else lo in
            let keyed =
              List.filter_map
                (fun r ->
                  let k = [ r.(col); r.(0); r.(1) ] in
                  if has_prefix prefix k && Store.key_compare k lo >= 0 then
                    Some (k, r)
                  else None)
                rows
              |> List.sort (fun (k1, _) (k2, _) -> Store.key_compare k1 k2)
              |> List.map snd
            in
            if q.q_stop = 0 then keyed
            else List.filteri (fun i _ -> i < q.q_stop) keyed
          in
          let matches_scan =
            List.for_all
              (fun q ->
                match
                  walked db q.q_col ~prefix:(vals q.q_prefix)
                    ~lo:(vals q.q_lo) q.q_stop
                with
                | Some (got, _) -> got = by_scan q
                | None -> false)
              queries
          in
          let fresh = walk_db kind ~indexed:false in
          ignore (Database.load_rows fresh (List.map (fun r -> ("W", r)) rows));
          List.iter
            (fun (c, _) -> ignore (Database.create_index fresh "W" c))
            walk_indexes;
          let matches_fresh =
            List.for_all
              (fun col ->
                List.for_all
                  (fun prefix ->
                    walked db col ~prefix 0 = walked fresh col ~prefix 0)
                  ([] :: List.init 5 (fun v -> [ Value.Int v ])))
              walk_indexes
          in
          matches_scan && matches_fresh)
        [ Store.Hazel; Store.Hickory; Store.Dogwood ])

(* ---------- Lock manager ---------- *)

let test_lock_table_level () =
  let l = Lock.create Lock.Table_level in
  Alcotest.(check bool) "t1 granted" true
    (Lock.acquire l ~txn:1 ~table:"A" ~key:(Some [ Value.Int 1 ]) = `Granted);
  Alcotest.(check bool) "t2 queued on other row (table lock)" true
    (Lock.acquire l ~txn:2 ~table:"A" ~key:(Some [ Value.Int 2 ]) = `Queued);
  Alcotest.(check (list int)) "t2 granted on release" [ 2 ]
    (Lock.release_all l ~txn:1)

let test_lock_row_level () =
  let l = Lock.create Lock.Row_level in
  Alcotest.(check bool) "t1 row1" true
    (Lock.acquire l ~txn:1 ~table:"A" ~key:(Some [ Value.Int 1 ]) = `Granted);
  Alcotest.(check bool) "t2 row2 independent" true
    (Lock.acquire l ~txn:2 ~table:"A" ~key:(Some [ Value.Int 2 ]) = `Granted);
  Alcotest.(check bool) "t3 row1 queued" true
    (Lock.acquire l ~txn:3 ~table:"A" ~key:(Some [ Value.Int 1 ]) = `Queued)

let test_lock_fifo_and_reentrant () =
  let l = Lock.create Lock.Table_level in
  ignore (Lock.acquire l ~txn:1 ~table:"A" ~key:None);
  Alcotest.(check bool) "reentrant" true
    (Lock.acquire l ~txn:1 ~table:"A" ~key:None = `Granted);
  ignore (Lock.acquire l ~txn:2 ~table:"A" ~key:None);
  ignore (Lock.acquire l ~txn:3 ~table:"A" ~key:None);
  Alcotest.(check (list int)) "fifo grant" [ 2 ] (Lock.release_all l ~txn:1);
  Alcotest.(check (list int)) "next in line" [ 3 ] (Lock.release_all l ~txn:2)

let test_lock_cancel () =
  let l = Lock.create Lock.Table_level in
  ignore (Lock.acquire l ~txn:1 ~table:"A" ~key:None);
  ignore (Lock.acquire l ~txn:2 ~table:"A" ~key:None);
  Lock.cancel l ~txn:2;
  Alcotest.(check (list int)) "cancelled waiter skipped" []
    (Lock.release_all l ~txn:1)

(* ---------- SQL ---------- *)

let exec_ok db sql =
  match Sql.exec_sql db sql with
  | Ok r -> r
  | Error e -> Alcotest.fail (sql ^ " -> " ^ e)

let test_sql_end_to_end () =
  let db = Database.create Store.Hazel in
  ignore
    (exec_ok db
       "CREATE TABLE accounts (id INT, owner TEXT, balance INT, PRIMARY KEY (id))");
  ignore
    (exec_ok db
       "INSERT INTO accounts VALUES (1, 'ada', 100), (2, 'bob', 50), (3, 'cy', 7)");
  (match exec_ok db "SELECT balance FROM accounts WHERE id = 2" with
  | Sql.Rows { rows = [ [| Value.Int 50 |] ]; _ } -> ()
  | _ -> Alcotest.fail "point select");
  (match exec_ok db "UPDATE accounts SET balance = balance + 10 WHERE id = 2" with
  | Sql.Affected 1 -> ()
  | _ -> Alcotest.fail "update");
  (match
     exec_ok db "SELECT owner FROM accounts WHERE balance >= 60 ORDER BY owner DESC"
   with
  | Sql.Rows { rows = [ [| Value.Text "bob" |]; [| Value.Text "ada" |] ]; _ } -> ()
  | _ -> Alcotest.fail "scan + order");
  (match exec_ok db "DELETE FROM accounts WHERE balance < 10" with
  | Sql.Affected 1 -> ()
  | _ -> Alcotest.fail "delete");
  match exec_ok db "SELECT * FROM accounts" with
  | Sql.Rows { rows; _ } -> Alcotest.(check int) "two rows left" 2 (List.length rows)
  | _ -> Alcotest.fail "select star"

let test_sql_txn_stmts () =
  let db = Database.create Store.Hazel in
  ignore (exec_ok db "CREATE TABLE t (id INT, v INT)");
  ignore (exec_ok db "BEGIN");
  ignore (exec_ok db "INSERT INTO t VALUES (1, 1)");
  ignore (exec_ok db "ROLLBACK");
  Alcotest.(check int) "rolled back" 0 (Database.row_count db "T");
  ignore (exec_ok db "BEGIN");
  ignore (exec_ok db "INSERT INTO t VALUES (1, 1)");
  ignore (exec_ok db "COMMIT");
  Alcotest.(check int) "committed" 1 (Database.row_count db "T")

let test_sql_errors () =
  let db = Database.create Store.Hazel in
  Alcotest.(check bool) "unknown table" true
    (Result.is_error (Sql.exec_sql db "SELECT * FROM nope"));
  Alcotest.(check bool) "parse error" true
    (Result.is_error (Sql.exec_sql db "SELEC * FROM t"));
  Alcotest.(check bool) "unterminated string" true
    (Result.is_error (Sql.exec_sql db "SELECT * FROM t WHERE a = 'oops"));
  ignore (exec_ok db "CREATE TABLE t (id INT, v INT)");
  Alcotest.(check bool) "unknown column" true
    (Result.is_error (Sql.exec_sql db "SELECT nope FROM t"))

let test_sql_limit_and_star_order () =
  let db = Database.create Store.Hazel in
  ignore (exec_ok db "CREATE TABLE t (id INT, v INT)");
  for i = 1 to 10 do
    ignore (exec_ok db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (100 - i)))
  done;
  match exec_ok db "SELECT id FROM t ORDER BY v ASC LIMIT 3" with
  | Sql.Rows { rows; _ } ->
      Alcotest.(check int) "limited" 3 (List.length rows);
      (match rows with
      | [| Value.Int first |] :: _ -> Alcotest.(check int) "smallest v first" 10 first
      | _ -> Alcotest.fail "unexpected shape")
  | _ -> Alcotest.fail "select"

let test_sql_aggregates () =
  let db = Database.create Store.Hazel in
  ignore (exec_ok db "CREATE TABLE t (id INT, v INT, w FLOAT)");
  for i = 1 to 10 do
    ignore
      (exec_ok db
         (Printf.sprintf "INSERT INTO t VALUES (%d, %d, %d.5)" i (i * 10) i))
  done;
  (match exec_ok db "SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t" with
  | Sql.Rows { rows = [ [| Value.Int 10; Value.Int 550; Value.Int 10; Value.Int 100; Value.Float avg |] ]; _ } ->
      Alcotest.(check (float 1e-9)) "avg" 55.0 avg
  | _ -> Alcotest.fail "aggregate row shape");
  match exec_ok db "SELECT COUNT(*) FROM t WHERE v > 50" with
  | Sql.Rows { rows = [ [| Value.Int 5 |] ]; _ } -> ()
  | _ -> Alcotest.fail "filtered count"

let test_sql_between_in () =
  let db = Database.create Store.Hazel in
  ignore (exec_ok db "CREATE TABLE t (id INT, v INT)");
  for i = 1 to 10 do
    ignore (exec_ok db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i i))
  done;
  (match exec_ok db "SELECT COUNT(*) FROM t WHERE v BETWEEN 3 AND 6" with
  | Sql.Rows { rows = [ [| Value.Int 4 |] ]; _ } -> ()
  | _ -> Alcotest.fail "between");
  match exec_ok db "SELECT COUNT(*) FROM t WHERE id IN (1, 5, 9, 42)" with
  | Sql.Rows { rows = [ [| Value.Int 3 |] ]; _ } -> ()
  | _ -> Alcotest.fail "in list"

let test_sql_create_index_and_plan () =
  let db = Database.create Store.Hazel in
  ignore (exec_ok db "CREATE TABLE t (id INT, city TEXT)");
  for i = 1 to 200 do
    ignore
      (exec_ok db
         (Printf.sprintf "INSERT INTO t VALUES (%d, '%s')" i
            (if i mod 2 = 0 then "even" else "odd")))
  done;
  ignore (exec_ok db "CREATE INDEX city_idx ON t (city)");
  ignore (Storage.Database.take_cost db);
  (match exec_ok db "SELECT id FROM t WHERE city = 'even'" with
  | Sql.Rows { rows; _ } -> Alcotest.(check int) "indexed select" 100 (List.length rows)
  | _ -> Alcotest.fail "rows expected");
  let indexed_cost = Storage.Database.take_cost db in
  (* Same query without the index support: compare against a scan on an
     unindexed column with the same selectivity. *)
  (match exec_ok db "SELECT id FROM t WHERE city <> 'odd'" with
  | Sql.Rows { rows; _ } -> Alcotest.(check int) "scan select" 100 (List.length rows)
  | _ -> Alcotest.fail "rows expected");
  let scan_cost = Storage.Database.take_cost db in
  Alcotest.(check bool) "planner used the cheaper index path" true
    (indexed_cost < scan_cost *. 200.0 && indexed_cost > 0.0);
  Alcotest.(check (list string)) "indexed_columns" [ "CITY" ]
    (Storage.Database.indexed_columns db "T")

(* Parser round-trip: print then re-parse equals the original AST. *)
let sql_corpus =
  [
    "SELECT * FROM t";
    "SELECT a, b FROM t WHERE (a = 1) AND (b < 'x') ORDER BY a ASC LIMIT 5";
    "INSERT INTO t (a, b) VALUES (1, 'it''s'), (2, NULL)";
    "UPDATE t SET a = (a + 1), b = 'y' WHERE NOT (a >= 10)";
    "DELETE FROM t WHERE (a <> 3) OR (b = TRUE)";
    "SELECT COUNT(*), SUM(a), MIN(a), MAX(b), AVG(c) FROM t";
    "SELECT * FROM t WHERE (a BETWEEN 1 AND 9) AND (b IN (1, 'x', NULL))";
    "CREATE INDEX ON t (a)";
    "CREATE TABLE t (a INT, b TEXT, c FLOAT, d BOOL, PRIMARY KEY (a, b))";
    "BEGIN";
    "COMMIT";
    "ROLLBACK";
  ]

let test_sql_roundtrip () =
  List.iter
    (fun sql ->
      match Storage.Sql_parser.parse sql with
      | Error e -> Alcotest.fail (sql ^ ": " ^ e)
      | Ok ast -> (
          let printed = Storage.Sql_ast.to_string ast in
          match Storage.Sql_parser.parse printed with
          | Error e -> Alcotest.fail (printed ^ ": " ^ e)
          | Ok ast2 ->
              Alcotest.(check bool)
                (sql ^ " round-trips") true (ast = ast2)))
    sql_corpus

let prop_value_codec_roundtrip =
  let gen_value =
    QCheck.Gen.(
      frequency
        [
          (1, return Value.Null);
          (3, map (fun i -> Value.Int i) int);
          (2, map (fun f -> Value.Float f) (float_bound_exclusive 1e6));
          (3, map (fun s -> Value.Text s) (string_size (0 -- 30)));
          (1, map (fun b -> Value.Bool b) bool);
        ])
  in
  QCheck.Test.make ~name:"shadowdb value codec round-trips" ~count:300
    (QCheck.make ~print:Value.to_string gen_value)
    (fun v ->
      match Shadowdb.Codec.decode_value (Shadowdb.Codec.encode_value v) with
      | Ok (v', "") -> Value.equal v v'
      | Ok _ | Error _ -> false)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "storage"
    [
      ( "btree",
        [
          qt prop_btree_model;
          qt prop_btree_invariants;
          qt prop_btree_iter_sorted;
          Alcotest.test_case "bulk" `Quick test_btree_bulk;
          Alcotest.test_case "range" `Quick test_btree_range;
          Alcotest.test_case "minmax" `Quick test_btree_minmax;
        ] );
      ("avl", [ qt prop_avl_model; qt prop_avl_balanced ]);
      ("backends", [ qt prop_backends_agree ]);
      ( "database",
        [
          Alcotest.test_case "insert/get" `Quick test_db_insert_get;
          Alcotest.test_case "schema checks" `Quick test_db_schema_checks;
          Alcotest.test_case "update/delete" `Quick test_db_update_delete;
          Alcotest.test_case "rollback" `Quick test_db_rollback;
          qt prop_rollback_restores_hash;
          Alcotest.test_case "dump/load" `Quick test_db_dump_load_roundtrip;
          Alcotest.test_case "cost accounting" `Quick test_db_cost_accounting;
        ] );
      ( "indexes",
        [
          Alcotest.test_case "lookup" `Quick test_index_lookup;
          Alcotest.test_case "maintained by writes" `Quick
            test_index_maintained_by_writes;
          Alcotest.test_case "maintained by rollback" `Quick
            test_index_maintained_by_rollback;
          qt prop_index_agrees_with_scan;
          qt prop_index_walk;
        ] );
      ( "locks",
        [
          Alcotest.test_case "table level" `Quick test_lock_table_level;
          Alcotest.test_case "row level" `Quick test_lock_row_level;
          Alcotest.test_case "fifo + reentrant" `Quick test_lock_fifo_and_reentrant;
          Alcotest.test_case "cancel" `Quick test_lock_cancel;
        ] );
      ( "sql",
        [
          Alcotest.test_case "end to end" `Quick test_sql_end_to_end;
          Alcotest.test_case "txn statements" `Quick test_sql_txn_stmts;
          Alcotest.test_case "errors" `Quick test_sql_errors;
          Alcotest.test_case "limit/order" `Quick test_sql_limit_and_star_order;
          Alcotest.test_case "aggregates" `Quick test_sql_aggregates;
          Alcotest.test_case "between/in" `Quick test_sql_between_in;
          Alcotest.test_case "create index + planner" `Quick
            test_sql_create_index_and_plan;
          Alcotest.test_case "print/parse round-trip" `Quick test_sql_roundtrip;
          qt prop_value_codec_roundtrip;
        ] );
    ]
