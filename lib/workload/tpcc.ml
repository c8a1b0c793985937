module Database = Storage.Database
module Schema = Storage.Schema
module Value = Storage.Value

type scale = {
  districts : int;
  customers_per_district : int;
  items : int;
  initial_orders_per_district : int;
}

let spec_scale =
  {
    districts = 10;
    customers_per_district = 3000;
    items = 100_000;
    initial_orders_per_district = 3000;
  }

let small_scale =
  {
    districts = 10;
    customers_per_district = 60;
    items = 1000;
    initial_orders_per_district = 30;
  }

let w_id = 1 (* single warehouse, as in the paper's configuration *)

(* Schemas *)

let schemas =
  [
    Schema.v ~table:"WAREHOUSE"
      ~columns:
        [
          ("W_ID", Value.T_int);
          ("W_NAME", Value.T_text);
          ("W_TAX", Value.T_float);
          ("W_YTD", Value.T_int);
        ]
      ~pkey:[ "W_ID" ];
    Schema.v ~table:"DISTRICT"
      ~columns:
        [
          ("D_W_ID", Value.T_int);
          ("D_ID", Value.T_int);
          ("D_NAME", Value.T_text);
          ("D_TAX", Value.T_float);
          ("D_YTD", Value.T_int);
          ("D_NEXT_O_ID", Value.T_int);
        ]
      ~pkey:[ "D_W_ID"; "D_ID" ];
    Schema.v ~table:"CUSTOMER"
      ~columns:
        [
          ("C_W_ID", Value.T_int);
          ("C_D_ID", Value.T_int);
          ("C_ID", Value.T_int);
          ("C_LAST", Value.T_text);
          ("C_BALANCE", Value.T_int);
          ("C_YTD_PAYMENT", Value.T_int);
          ("C_PAYMENT_CNT", Value.T_int);
          ("C_DELIVERY_CNT", Value.T_int);
        ]
      ~pkey:[ "C_W_ID"; "C_D_ID"; "C_ID" ];
    Schema.v ~table:"HISTORY"
      ~columns:
        [
          ("H_ID", Value.T_int);
          ("H_C_ID", Value.T_int);
          ("H_D_ID", Value.T_int);
          ("H_W_ID", Value.T_int);
          ("H_AMOUNT", Value.T_int);
        ]
      ~pkey:[ "H_ID" ];
    Schema.v ~table:"ORDERS"
      ~columns:
        [
          ("O_W_ID", Value.T_int);
          ("O_D_ID", Value.T_int);
          ("O_ID", Value.T_int);
          ("O_C_ID", Value.T_int);
          ("O_OL_CNT", Value.T_int);
          ("O_CARRIER_ID", Value.T_int);
        ]
      ~pkey:[ "O_W_ID"; "O_D_ID"; "O_ID" ];
    Schema.v ~table:"NEW_ORDER"
      ~columns:
        [
          ("NO_W_ID", Value.T_int);
          ("NO_D_ID", Value.T_int);
          ("NO_O_ID", Value.T_int);
        ]
      ~pkey:[ "NO_W_ID"; "NO_D_ID"; "NO_O_ID" ];
    Schema.v ~table:"ORDER_LINE"
      ~columns:
        [
          ("OL_W_ID", Value.T_int);
          ("OL_D_ID", Value.T_int);
          ("OL_O_ID", Value.T_int);
          ("OL_NUMBER", Value.T_int);
          ("OL_I_ID", Value.T_int);
          ("OL_QUANTITY", Value.T_int);
          ("OL_AMOUNT", Value.T_int);
          ("OL_DELIVERED", Value.T_bool);
        ]
      ~pkey:[ "OL_W_ID"; "OL_D_ID"; "OL_O_ID"; "OL_NUMBER" ];
    Schema.v ~table:"ITEM"
      ~columns:
        [ ("I_ID", Value.T_int); ("I_NAME", Value.T_text); ("I_PRICE", Value.T_int) ]
      ~pkey:[ "I_ID" ];
    Schema.v ~table:"STOCK"
      ~columns:
        [
          ("S_W_ID", Value.T_int);
          ("S_I_ID", Value.T_int);
          ("S_QUANTITY", Value.T_int);
          ("S_YTD", Value.T_int);
          ("S_ORDER_CNT", Value.T_int);
        ]
      ~pkey:[ "S_W_ID"; "S_I_ID" ];
  ]

let ok_exn = function Ok x -> x | Error e -> invalid_arg e

(* Secondary indexes covering the benchmark's hot lookups (order-status by
   customer, delivery and stock-level by district). *)
let index_plan =
  [ ("ORDERS", "O_C_ID"); ("ORDER_LINE", "OL_D_ID"); ("NEW_ORDER", "NO_D_ID") ]

let setup ?(scale = small_scale) db =
  List.iter (fun s -> ok_exn (Database.create_table db s)) schemas;
  List.iter (fun (t, c) -> ok_exn (Database.create_index db t c)) index_plan;
  let ins table row = ok_exn (Database.insert db table row) in
  ins "WAREHOUSE"
    [| Value.Int w_id; Value.Text "W1"; Value.Float 0.1; Value.Int 0 |];
  for i = 1 to scale.items do
    ins "ITEM"
      [| Value.Int i; Value.Text (Printf.sprintf "item%d" i); Value.Int (100 + (i mod 900)) |];
    ins "STOCK"
      [| Value.Int w_id; Value.Int i; Value.Int 91; Value.Int 0; Value.Int 0 |]
  done;
  for d = 1 to scale.districts do
    ins "DISTRICT"
      [|
        Value.Int w_id;
        Value.Int d;
        Value.Text (Printf.sprintf "D%d" d);
        Value.Float 0.05;
        Value.Int 0;
        Value.Int (scale.initial_orders_per_district + 1);
      |];
    for c = 1 to scale.customers_per_district do
      ins "CUSTOMER"
        [|
          Value.Int w_id;
          Value.Int d;
          Value.Int c;
          Value.Text (Printf.sprintf "LAST%d" (c mod 100));
          Value.Int (-1000);
          Value.Int 1000;
          Value.Int 1;
          Value.Int 0;
        |]
    done;
    (* Initial orders: one per o_id, round-robin customers, 5 lines each;
       the most recent third are undelivered (rows in NEW_ORDER). *)
    for o = 1 to scale.initial_orders_per_district do
      let c = ((o - 1) mod scale.customers_per_district) + 1 in
      let ol_cnt = 5 in
      let delivered = o <= scale.initial_orders_per_district * 2 / 3 in
      ins "ORDERS"
        [|
          Value.Int w_id;
          Value.Int d;
          Value.Int o;
          Value.Int c;
          Value.Int ol_cnt;
          (if delivered then Value.Int 1 else Value.Null);
        |];
      if not delivered then
        ins "NEW_ORDER" [| Value.Int w_id; Value.Int d; Value.Int o |];
      for n = 1 to ol_cnt do
        let item = (((o * 7) + (n * 13)) mod scale.items) + 1 in
        ins "ORDER_LINE"
          [|
            Value.Int w_id;
            Value.Int d;
            Value.Int o;
            Value.Int n;
            Value.Int item;
            Value.Int 5;
            Value.Int 250;
            Value.Bool delivered;
          |]
      done
    done
  done

(* Helpers *)

let get_i = function Value.Int i -> i | _ -> invalid_arg "int expected"

let vi i = Value.Int i

exception Abort of string

let find db table key =
  match Database.get db table key with
  | Some row -> row
  | None -> raise (Abort (table ^ ": row not found"))

let upd db table key f =
  match Database.update db table key f with
  | Ok true -> ()
  | Ok false -> raise (Abort (table ^ ": row not found"))
  | Error e -> raise (Abort e)

let ins db table row =
  match Database.insert db table row with
  | Ok () -> ()
  | Error e -> raise (Abort e)

(* An ordered walk over one index of [index_plan] (keys are
   [column value :: primary key]); [f] returns [false] to stop early. *)
let walk db table column ~prefix ?lo f =
  match Database.index_walk db table ~column ~prefix ?lo f with
  | Ok () -> ()
  | Error e -> raise (Abort e)

(* The lines of one order, in line-number order. *)
let order_lines db d o_id =
  let lines = ref [] in
  walk db "ORDER_LINE" "OL_D_ID" ~prefix:[ vi d; vi w_id; vi d; vi o_id ]
    (fun r ->
      lines := r :: !lines;
      true);
  List.rev !lines

(* Transaction procedures. Parameters fully determine execution, so every
   replica aborts or commits identically (paper's determinism premise). *)

(* new_order w d c [i1;q1; i2;q2; ...] — an invalid item id aborts the
   whole transaction (the TPC-C 1% rollback rule). *)
let proc_new_order db params =
  match params with
  | Value.Int d :: Value.Int c :: rest when List.length rest mod 2 = 0 ->
      let rec pairs = function
        | [] -> []
        | Value.Int i :: Value.Int q :: tl -> (i, q) :: pairs tl
        | _ -> raise (Abort "new_order: bad item list")
      in
      let items = pairs rest in
      if items = [] then raise (Abort "new_order: empty order");
      let _w = find db "WAREHOUSE" [ vi w_id ] in
      let district = find db "DISTRICT" [ vi w_id; vi d ] in
      let o_id = get_i district.(5) in
      upd db "DISTRICT" [ vi w_id; vi d ] (fun r ->
          r.(5) <- vi (o_id + 1);
          r);
      let _cust = find db "CUSTOMER" [ vi w_id; vi d; vi c ] in
      ins db "ORDERS"
        [| vi w_id; vi d; vi o_id; vi c; vi (List.length items); Value.Null |];
      ins db "NEW_ORDER" [| vi w_id; vi d; vi o_id |];
      let total = ref 0 in
      List.iteri
        (fun idx (item, qty) ->
          let irow = find db "ITEM" [ vi item ] in
          let price = get_i irow.(2) in
          upd db "STOCK" [ vi w_id; vi item ] (fun r ->
              let q = get_i r.(2) in
              r.(2) <- vi (if q - qty >= 10 then q - qty else q - qty + 91);
              r.(3) <- vi (get_i r.(3) + qty);
              r.(4) <- vi (get_i r.(4) + 1);
              r);
          let amount = price * qty in
          total := !total + amount;
          ins db "ORDER_LINE"
            [|
              vi w_id; vi d; vi o_id; vi (idx + 1); vi item; vi qty;
              vi amount; Value.Bool false;
            |])
        items;
      Ok [ [| vi o_id; vi !total |] ]
  | _ -> Error "new_order: bad parameters"

(* payment w d c amount h_id *)
let proc_payment db params =
  match params with
  | [ Value.Int d; Value.Int c; Value.Int amount; Value.Int h_id ] ->
      upd db "WAREHOUSE" [ vi w_id ] (fun r ->
          r.(3) <- vi (get_i r.(3) + amount);
          r);
      upd db "DISTRICT" [ vi w_id; vi d ] (fun r ->
          r.(4) <- vi (get_i r.(4) + amount);
          r);
      upd db "CUSTOMER" [ vi w_id; vi d; vi c ] (fun r ->
          r.(4) <- vi (get_i r.(4) - amount);
          r.(5) <- vi (get_i r.(5) + amount);
          r.(6) <- vi (get_i r.(6) + 1);
          r);
      ins db "HISTORY" [| vi h_id; vi c; vi d; vi w_id; vi amount |];
      Ok []
  | _ -> Error "payment: bad parameters"

(* order_status d c *)
let proc_order_status db params =
  match params with
  | [ Value.Int d; Value.Int c ] ->
      let cust = find db "CUSTOMER" [ vi w_id; vi d; vi c ] in
      (* The customer's orders in this district, ascending by O_ID: the
         last one visited is the most recent. *)
      let last = ref None in
      walk db "ORDERS" "O_C_ID" ~prefix:[ vi c; vi w_id; vi d ] (fun r ->
          last := Some r;
          true);
      (match !last with
      | None -> Ok [ [| cust.(4) |] ]
      | Some o ->
          let lines = order_lines db d (get_i o.(2)) in
          Ok ([| cust.(4); o.(2); o.(5) |] :: lines))
  | _ -> Error "order_status: bad parameters"

(* delivery carrier *)
let proc_delivery db params =
  match params with
  | [ Value.Int carrier ] ->
      let delivered = ref 0 in
      let districts =
        ok_exn (Database.scan db "DISTRICT" ~pred:(fun _ -> true))
      in
      List.iter
        (fun drow ->
          let d = get_i drow.(1) in
          (* The index is ascending by NO_O_ID, so the first entry is the
             oldest undelivered order of the district. *)
          let oldest = ref None in
          walk db "NEW_ORDER" "NO_D_ID" ~prefix:[ vi d; vi w_id; vi d ] (fun r ->
              oldest := Some r;
              false);
          match !oldest with
          | None -> ()
          | Some first ->
              let o_id = get_i first.(2) in
              (match Database.delete db "NEW_ORDER" [ vi w_id; vi d; vi o_id ] with
              | Ok _ -> ()
              | Error e -> raise (Abort e));
              let order = find db "ORDERS" [ vi w_id; vi d; vi o_id ] in
              let c = get_i order.(3) in
              upd db "ORDERS" [ vi w_id; vi d; vi o_id ] (fun r ->
                  r.(5) <- vi carrier;
                  r);
              let lines = order_lines db d o_id in
              let amount =
                List.fold_left (fun a r -> a + get_i r.(6)) 0 lines
              in
              List.iter
                (fun r ->
                  let n = get_i r.(3) in
                  upd db "ORDER_LINE" [ vi w_id; vi d; vi o_id; vi n ] (fun r ->
                      r.(7) <- Value.Bool true;
                      r))
                lines;
              upd db "CUSTOMER" [ vi w_id; vi d; vi c ] (fun r ->
                  r.(4) <- vi (get_i r.(4) + amount);
                  r.(7) <- vi (get_i r.(7) + 1);
                  r);
              incr delivered)
        districts;
      Ok [ [| vi !delivered |] ]
  | _ -> Error "delivery: bad parameters"

(* stock_level d threshold *)
let proc_stock_level db params =
  match params with
  | [ Value.Int d; Value.Int threshold ] ->
      let district = find db "DISTRICT" [ vi w_id; vi d ] in
      let next_o = get_i district.(5) in
      (* The lines of the district's last 20 orders. *)
      let items = ref [] in
      walk db "ORDER_LINE" "OL_D_ID" ~prefix:[ vi d; vi w_id; vi d ]
        ~lo:[ vi d; vi w_id; vi d; vi (next_o - 20) ]
        (fun r ->
          items := get_i r.(4) :: !items;
          true);
      let items = List.sort_uniq compare !items in
      let low =
        List.filter
          (fun i ->
            let s = find db "STOCK" [ vi w_id; vi i ] in
            get_i s.(2) < threshold)
          items
      in
      Ok [ [| vi (List.length low) |] ]
  | _ -> Error "stock_level: bad parameters"

let wrap proc db params =
  try proc db params with
  | Abort m -> Error m
  | Invalid_argument m -> Error m
  | Sim.Invariant.Violation { detail; _ } -> Error detail

let registry ?scale:_ () =
  Shadowdb.Txn.registry
    [
      ("new_order", wrap proc_new_order);
      ("payment", wrap proc_payment);
      ("order_status", wrap proc_order_status);
      ("delivery", wrap proc_delivery);
      ("stock_level", wrap proc_stock_level);
    ]

(* NURand(A, x, y) per the TPC-C spec, with a fixed C constant. *)
let nurand rng a x y =
  let c = 123 land a in
  let r1 = Sim.Prng.int rng (a + 1) in
  let r2 = x + Sim.Prng.int rng (y - x + 1) in
  (((r1 lor r2) + c) mod (y - x + 1)) + x

let make_txn ?(scale = small_scale) rng ~h_id =
  let d = 1 + Sim.Prng.int rng scale.districts in
  let c = nurand rng 1023 1 scale.customers_per_district in
  let roll = Sim.Prng.int rng 100 in
  if roll < 45 then begin
    (* New-Order: 5–15 lines; 1% carry an invalid item (rollback rule). *)
    let n_lines = 5 + Sim.Prng.int rng 11 in
    let bad = Sim.Prng.int rng 100 = 0 in
    let items =
      List.concat
        (List.init n_lines (fun i ->
             let item =
               if bad && i = n_lines - 1 then scale.items + 999_999
               else nurand rng 8191 1 scale.items
             in
             [ vi item; vi (1 + Sim.Prng.int rng 10) ]))
    in
    ("new_order", vi d :: vi c :: items)
  end
  else if roll < 88 then
    ("payment", [ vi d; vi c; vi (1 + Sim.Prng.int rng 5000); vi h_id ])
  else if roll < 92 then ("order_status", [ vi d; vi c ])
  else if roll < 96 then ("delivery", [ vi (1 + Sim.Prng.int rng 10) ])
  else ("stock_level", [ vi d; vi (10 + Sim.Prng.int rng 11) ])

let row_counts db =
  List.map (fun t -> (t, Database.row_count db t)) (Database.tables db)

(* Consistency conditions *)

let scan_all db table = ok_exn (Database.scan db table ~pred:(fun _ -> true))

let consistency_1 db =
  let w = find db "WAREHOUSE" [ vi w_id ] in
  let d_sum =
    List.fold_left (fun a r -> a + get_i r.(4)) 0 (scan_all db "DISTRICT")
  in
  if get_i w.(3) = d_sum then Ok ()
  else
    Error (Printf.sprintf "W_YTD %d <> sum(D_YTD) %d" (get_i w.(3)) d_sum)

let for_each_district db f =
  let districts = scan_all db "DISTRICT" in
  List.fold_left
    (fun acc drow ->
      match acc with Error _ -> acc | Ok () -> f (get_i drow.(1)) drow)
    (Ok ()) districts

(* One pass over [table], folding each row into its district's
   accumulator: column 1 is the district id of every order-side table. *)
let by_district db table ~init ~f =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let d = get_i r.(1) in
      let a = Option.value (Hashtbl.find_opt acc d) ~default:init in
      Hashtbl.replace acc d (f a r))
    (scan_all db table);
  fun d -> Option.value (Hashtbl.find_opt acc d) ~default:init

let consistency_2 db =
  let max_o =
    by_district db "ORDERS" ~init:0 ~f:(fun a r -> max a (get_i r.(2)))
  in
  for_each_district db (fun d drow ->
      let next = get_i drow.(5) in
      if max_o d = next - 1 then Ok ()
      else
        Error
          (Printf.sprintf "district %d: max(O_ID)=%d, D_NEXT_O_ID-1=%d" d
             (max_o d) (next - 1)))

let consistency_3 db =
  let news =
    by_district db "NEW_ORDER" ~init:(0, max_int, min_int)
      ~f:(fun (n, mn, mx) r ->
        let o = get_i r.(2) in
        (n + 1, min mn o, max mx o))
  in
  for_each_district db (fun d _ ->
      let n, mn, mx = news d in
      if n = 0 || mx - mn + 1 = n then Ok ()
      else
        Error (Printf.sprintf "district %d: NEW_ORDER ids not contiguous" d))

let consistency_4 db =
  let sum_cnt =
    by_district db "ORDERS" ~init:0 ~f:(fun a r -> a + get_i r.(4))
  in
  let lines = by_district db "ORDER_LINE" ~init:0 ~f:(fun a _ -> a + 1) in
  for_each_district db (fun d _ ->
      if sum_cnt d = lines d then Ok ()
      else
        Error
          (Printf.sprintf "district %d: sum(O_OL_CNT)=%d, #ORDER_LINE=%d" d
             (sum_cnt d) (lines d)))
