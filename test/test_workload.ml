(* Tests for the workload substrates: the bank micro-benchmark and
   TPC-C-lite (schema, loader, the five procedures, the mix generator and
   the consistency conditions). *)

module Database = Storage.Database
module Store = Storage.Store
module Value = Storage.Value
module Txn = Shadowdb.Txn
module Bank = Workload.Bank
module Tpcc = Workload.Tpcc

let mk_bank ?(rows = 100) () =
  let db = Database.create Store.Hazel in
  Bank.setup ~rows db;
  (db, Bank.registry ())

let exec reg db ~seq kind_params =
  let kind, params = kind_params in
  Txn.execute reg db { Txn.client = 1; seq; kind; params }

(* Bank *)

let test_bank_setup () =
  let db, _ = mk_bank ~rows:123 () in
  Alcotest.(check int) "row count" 123 (Database.row_count db Bank.table);
  Alcotest.(check int) "initial balance" (123 * 100) (Bank.total_balance db)

let test_bank_wide_rows () =
  let db = Database.create Store.Hazel in
  Bank.setup ~rows:5 ~wide:true db;
  match Database.get db Bank.table [ Value.Int 0 ] with
  | Some row ->
      let bytes =
        Array.fold_left (fun a v -> a + Value.serialized_size v) 0 row
      in
      Alcotest.(check int) "4 columns" 4 (Array.length row);
      Alcotest.(check bool) "≈1KB rows" true (bytes > 950 && bytes < 1100)
  | None -> Alcotest.fail "row missing"

let test_bank_deposit_and_balance () =
  let db, reg = mk_bank () in
  let r = exec reg db ~seq:0 (Bank.deposit ~account:7 ~amount:42) in
  Alcotest.(check bool) "deposit ok" true (Result.is_ok r.Txn.outcome);
  match (exec reg db ~seq:1 (Bank.balance ~account:7)).Txn.outcome with
  | Ok [ [| Value.Int b |] ] -> Alcotest.(check int) "balance" 142 b
  | _ -> Alcotest.fail "balance query failed"

let test_bank_transfer_aborts_atomically () =
  let db, reg = mk_bank () in
  let before = Bank.total_balance db in
  let r = exec reg db ~seq:0 (Bank.transfer ~src:1 ~dst:2 ~amount:1_000_000) in
  (match r.Txn.outcome with
  | Error "insufficient funds" -> ()
  | Error e -> Alcotest.fail ("unexpected abort: " ^ e)
  | Ok _ -> Alcotest.fail "transfer should abort");
  Alcotest.(check int) "no partial debit" before (Bank.total_balance db)

let prop_bank_conservation =
  QCheck.Test.make ~name:"transfers conserve total balance" ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) (triple (int_bound 99) (int_bound 99) (int_bound 200)))
    (fun moves ->
      let db, reg = mk_bank () in
      let before = Bank.total_balance db in
      List.iteri
        (fun i (src, dst, amount) ->
          ignore (exec reg db ~seq:i (Bank.transfer ~src ~dst ~amount)))
        moves;
      Bank.total_balance db = before)

let test_bank_random_deposit_in_range () =
  let rng = Sim.Prng.create 5 in
  for _ = 1 to 100 do
    match Bank.random_deposit rng ~rows:50 with
    | "deposit", [ Value.Int a; Value.Int m ] ->
        Alcotest.(check bool) "ranges" true (a >= 0 && a < 50 && m >= 1)
    | _ -> Alcotest.fail "unexpected shape"
  done

(* TPC-C *)

let mk_tpcc () =
  let db = Database.create Store.Hazel in
  Tpcc.setup db;
  (db, Tpcc.registry ())

let scale = Tpcc.small_scale

let test_tpcc_setup_counts () =
  let db, _ = mk_tpcc () in
  let count t = Database.row_count db t in
  Alcotest.(check int) "warehouse" 1 (count "WAREHOUSE");
  Alcotest.(check int) "districts" scale.Tpcc.districts (count "DISTRICT");
  Alcotest.(check int) "customers"
    (scale.Tpcc.districts * scale.Tpcc.customers_per_district)
    (count "CUSTOMER");
  Alcotest.(check int) "items" scale.Tpcc.items (count "ITEM");
  Alcotest.(check int) "stock" scale.Tpcc.items (count "STOCK");
  Alcotest.(check int) "orders"
    (scale.Tpcc.districts * scale.Tpcc.initial_orders_per_district)
    (count "ORDERS");
  Alcotest.(check bool) "new orders non-empty" true (count "NEW_ORDER" > 0)

let test_tpcc_initial_consistency () =
  let db, _ = mk_tpcc () in
  List.iter
    (fun (name, check) ->
      match check db with
      | Ok () -> ()
      | Error e -> Alcotest.fail (name ^ ": " ^ e))
    [
      ("c1", Tpcc.consistency_1);
      ("c2", Tpcc.consistency_2);
      ("c3", Tpcc.consistency_3);
      ("c4", Tpcc.consistency_4);
    ]

(* Each of checks 2-4 rejects a database broken in district 3 in its own
   way, and names that district. *)
let test_tpcc_consistency_violations () =
  let broken name check break =
    let db, _ = mk_tpcc () in
    break db;
    match check db with
    | Ok () -> Alcotest.fail (name ^ ": violation not detected")
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s names district 3: %s" name e)
          true
          (String.starts_with ~prefix:"district 3:" e)
  in
  let key = List.map (fun i -> Value.Int i) in
  let ok_true name = function
    | Ok true -> ()
    | Ok false | Error _ -> Alcotest.fail (name ^ ": row not found")
  in
  broken "c2" Tpcc.consistency_2 (fun db ->
      ok_true "D_NEXT_O_ID bump"
        (Database.update db "DISTRICT" (key [ 1; 3 ]) (fun r ->
             let r = Array.copy r in
             (match r.(5) with
             | Value.Int n -> r.(5) <- Value.Int (n + 1)
             | _ -> Alcotest.fail "D_NEXT_O_ID is not an int");
             r)));
  broken "c3" Tpcc.consistency_3 (fun db ->
      ok_true "middle NEW_ORDER"
        (Database.delete db "NEW_ORDER" (key [ 1; 3; 25 ])));
  broken "c4" Tpcc.consistency_4 (fun db ->
      ok_true "one ORDER_LINE"
        (Database.delete db "ORDER_LINE" (key [ 1; 3; 10; 2 ])))

let test_tpcc_new_order () =
  let db, reg = mk_tpcc () in
  let orders_before = Database.row_count db "ORDERS" in
  let r =
    exec reg db ~seq:0
      ( "new_order",
        [ Value.Int 1; Value.Int 1; Value.Int 5; Value.Int 2; Value.Int 9; Value.Int 1 ] )
  in
  (match r.Txn.outcome with
  | Ok ([| Value.Int o_id; Value.Int total |] :: _) ->
      Alcotest.(check bool) "fresh order id" true
        (o_id = scale.Tpcc.initial_orders_per_district + 1);
      Alcotest.(check bool) "positive total" true (total > 0)
  | Ok _ -> Alcotest.fail "unexpected result shape"
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "order row added" (orders_before + 1)
    (Database.row_count db "ORDERS");
  Alcotest.(check int) "2 order lines" 2
    (Database.row_count db "ORDER_LINE"
    - (scale.Tpcc.districts * scale.Tpcc.initial_orders_per_district * 5))

let test_tpcc_new_order_bad_item_aborts () =
  let db, reg = mk_tpcc () in
  let h = Database.content_hash db in
  let r =
    exec reg db ~seq:0
      ("new_order", [ Value.Int 1; Value.Int 1; Value.Int 999_999_999; Value.Int 1 ])
  in
  Alcotest.(check bool) "aborted" true (Result.is_error r.Txn.outcome);
  Alcotest.(check int) "state unchanged (atomic rollback)" h
    (Database.content_hash db)

let test_tpcc_payment () =
  let db, reg = mk_tpcc () in
  let r =
    exec reg db ~seq:0
      ("payment", [ Value.Int 2; Value.Int 3; Value.Int 500; Value.Int 777 ])
  in
  Alcotest.(check bool) "ok" true (Result.is_ok r.Txn.outcome);
  (match Tpcc.consistency_1 db with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "history row" 1 (Database.row_count db "HISTORY")

let test_tpcc_delivery () =
  let db, reg = mk_tpcc () in
  let new_orders_before = Database.row_count db "NEW_ORDER" in
  let r = exec reg db ~seq:0 ("delivery", [ Value.Int 4 ]) in
  (match r.Txn.outcome with
  | Ok [ [| Value.Int delivered |] ] ->
      Alcotest.(check int) "one order per district" scale.Tpcc.districts
        delivered;
      Alcotest.(check int) "new_order rows consumed"
        (new_orders_before - delivered)
        (Database.row_count db "NEW_ORDER")
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.fail e)

let test_tpcc_order_status_and_stock_level () =
  let db, reg = mk_tpcc () in
  let r = exec reg db ~seq:0 ("order_status", [ Value.Int 1; Value.Int 1 ]) in
  (match r.Txn.outcome with
  | Ok (_ :: _) -> ()
  | Ok [] -> Alcotest.fail "no status rows"
  | Error e -> Alcotest.fail e);
  let r = exec reg db ~seq:1 ("stock_level", [ Value.Int 1; Value.Int 100 ]) in
  match r.Txn.outcome with
  | Ok [ [| Value.Int low |] ] ->
      Alcotest.(check bool) "all items below 100" true (low > 0)
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.fail e

let prop_tpcc_mix_consistency =
  QCheck.Test.make ~name:"random TPC-C mix preserves consistency 1-4" ~count:15
    QCheck.small_int
    (fun seed ->
      let db, reg = mk_tpcc () in
      let rng = Sim.Prng.create seed in
      for i = 0 to 80 do
        let kind, params = Tpcc.make_txn rng ~h_id:(1000 + i) in
        ignore (exec reg db ~seq:i (kind, params))
      done;
      List.for_all
        (fun check -> Result.is_ok (check db))
        [ Tpcc.consistency_1; Tpcc.consistency_2; Tpcc.consistency_3; Tpcc.consistency_4 ])

(* The scan-bound procedures stay O(result) as the tables grow. A fresh
   small-scale database and one grown by 3,000 New-Orders run the same
   Delivery, Order-Status and Stock-Level; their virtual costs (a count
   of charged reads and writes, so this cannot flake) must be within
   1.2x. The New-Orders are pinned to the loader's shape (5 lines, the
   loader's item formula) and skip customer 1, so both databases hand the
   three procedures the same-sized result and only the access path can
   make the grown one dearer. *)
let test_tpcc_cost_flat_under_growth () =
  let cost db reg ~seq txn =
    ignore (Database.take_cost db);
    let r = exec reg db ~seq txn in
    (match r.Txn.outcome with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (fst txn ^ ": " ^ e));
    Database.take_cost db
  in
  let costs db reg =
    [
      ("delivery", cost db reg ~seq:1_000_000 ("delivery", [ Value.Int 3 ]));
      ( "order_status",
        cost db reg ~seq:1_000_001 ("order_status", [ Value.Int 1; Value.Int 1 ]) );
      ( "stock_level",
        cost db reg ~seq:1_000_002 ("stock_level", [ Value.Int 1; Value.Int 15 ]) );
    ]
  in
  let fresh_db, fresh_reg = mk_tpcc () in
  let fresh = costs fresh_db fresh_reg in
  let db, reg = mk_tpcc () in
  let next_o = Array.make (scale.Tpcc.districts + 1) (scale.Tpcc.initial_orders_per_district + 1) in
  for i = 0 to 2_999 do
    let d = 1 + (i mod scale.Tpcc.districts) in
    let c = 2 + (i mod (scale.Tpcc.customers_per_district - 1)) in
    let o = next_o.(d) in
    next_o.(d) <- o + 1;
    let items =
      List.concat_map
        (fun n ->
          [ Value.Int ((((o * 7) + (n * 13)) mod scale.Tpcc.items) + 1); Value.Int 1 ])
        [ 1; 2; 3; 4; 5 ]
    in
    match (exec reg db ~seq:i ("new_order", Value.Int d :: Value.Int c :: items)).Txn.outcome with
    | Ok _ -> ()
    | Error e -> Alcotest.fail ("new_order: " ^ e)
  done;
  Alcotest.(check int) "order lines grew by 15,000"
    ((scale.Tpcc.districts * scale.Tpcc.initial_orders_per_district * 5) + 15_000)
    (Database.row_count db "ORDER_LINE");
  List.iter2
    (fun (name, before) (_, after) ->
      if after > 1.2 *. before then
        Alcotest.failf "%s: %.1f us on the grown database vs %.1f us fresh" name
          (after *. 1e6) (before *. 1e6))
    fresh (costs db reg)

(* The same TPC-C stream on the three backends: every transaction's
   result, and at the end every row of every table, must agree, and the
   consistency conditions must hold. [dump] is compared rather than
   [content_hash], which does not see late columns such as
   C_DELIVERY_CNT. *)
let test_tpcc_backends_agree () =
  let run kind =
    let db = Database.create kind in
    Tpcc.setup db;
    let reg = Tpcc.registry () in
    let rng = Sim.Prng.create 11 in
    let results =
      List.init 2_000 (fun i ->
          (exec reg db ~seq:i (Tpcc.make_txn rng ~h_id:i)).Txn.outcome)
    in
    List.iter
      (fun (name, check) ->
        match check db with
        | Ok () -> ()
        | Error e ->
            Alcotest.failf "%s on %s: %s" name (Store.kind_name kind) e)
      [
        ("c1", Tpcc.consistency_1);
        ("c2", Tpcc.consistency_2);
        ("c3", Tpcc.consistency_3);
        ("c4", Tpcc.consistency_4);
      ];
    (results, Database.dump db)
  in
  let h_results, h_dump = run Store.Hazel in
  Alcotest.(check bool) "some transactions commit" true
    (List.exists Result.is_ok h_results);
  List.iter
    (fun kind ->
      let results, dump = run kind in
      List.iteri
        (fun i (a, b) ->
          if a <> b then
            Alcotest.failf "txn %d: %s differs from hazel" i (Store.kind_name kind))
        (List.combine h_results results);
      Alcotest.(check bool)
        (Store.kind_name kind ^ " dump = hazel dump")
        true (dump = h_dump))
    [ Store.Hickory; Store.Dogwood ]

let test_tpcc_mix_distribution () =
  let rng = Sim.Prng.create 99 in
  let counts = Hashtbl.create 8 in
  let n = 5000 in
  for i = 0 to n - 1 do
    let kind, _ = Tpcc.make_txn rng ~h_id:i in
    Hashtbl.replace counts kind
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts kind))
  done;
  let pct kind =
    100.0
    *. float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts kind))
    /. float_of_int n
  in
  Alcotest.(check bool) "new_order ≈45%" true (abs_float (pct "new_order" -. 45.0) < 4.0);
  Alcotest.(check bool) "payment ≈43%" true (abs_float (pct "payment" -. 43.0) < 4.0);
  Alcotest.(check bool) "order_status ≈4%" true (abs_float (pct "order_status" -. 4.0) < 2.0);
  Alcotest.(check bool) "delivery ≈4%" true (abs_float (pct "delivery" -. 4.0) < 2.0);
  Alcotest.(check bool) "stock_level ≈4%" true (abs_float (pct "stock_level" -. 4.0) < 2.0)

let test_tpcc_determinism () =
  (* The same (seed, h_id) produces the same transaction — the property
     replication depends on. *)
  let t1 = Tpcc.make_txn (Sim.Prng.create 7) ~h_id:3 in
  let t2 = Tpcc.make_txn (Sim.Prng.create 7) ~h_id:3 in
  Alcotest.(check bool) "deterministic" true (t1 = t2)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "workload"
    [
      ( "bank",
        [
          Alcotest.test_case "setup" `Quick test_bank_setup;
          Alcotest.test_case "wide rows" `Quick test_bank_wide_rows;
          Alcotest.test_case "deposit/balance" `Quick test_bank_deposit_and_balance;
          Alcotest.test_case "transfer abort atomic" `Quick
            test_bank_transfer_aborts_atomically;
          qt prop_bank_conservation;
          Alcotest.test_case "random deposit" `Quick
            test_bank_random_deposit_in_range;
        ] );
      ( "tpcc",
        [
          Alcotest.test_case "setup counts" `Quick test_tpcc_setup_counts;
          Alcotest.test_case "initial consistency" `Quick
            test_tpcc_initial_consistency;
          Alcotest.test_case "consistency violations" `Quick
            test_tpcc_consistency_violations;
          Alcotest.test_case "new_order" `Quick test_tpcc_new_order;
          Alcotest.test_case "new_order bad item" `Quick
            test_tpcc_new_order_bad_item_aborts;
          Alcotest.test_case "payment" `Quick test_tpcc_payment;
          Alcotest.test_case "delivery" `Quick test_tpcc_delivery;
          Alcotest.test_case "order_status/stock_level" `Quick
            test_tpcc_order_status_and_stock_level;
          qt prop_tpcc_mix_consistency;
          Alcotest.test_case "cost flat under growth" `Quick
            test_tpcc_cost_flat_under_growth;
          Alcotest.test_case "backends agree" `Quick test_tpcc_backends_agree;
          Alcotest.test_case "mix distribution" `Quick test_tpcc_mix_distribution;
          Alcotest.test_case "determinism" `Quick test_tpcc_determinism;
        ] );
    ]
