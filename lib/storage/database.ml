(* A secondary index maps (column value, primary key) -> () in an ordered
   B+-tree (ordered regardless of the table's backend); the composite key
   disambiguates duplicate column values. *)
type index = {
  column : int;
  mutable entries : (Value.t list, unit) Btree.t;
}

type table = {
  schema : Schema.t;
  store : Store.t;
  indexes : (string, index) Hashtbl.t;  (* column name -> index *)
}

type undo =
  | U_inserted of string * Store.key
  | U_deleted of string * Value.t array
  | U_updated of string * Value.t array

type t = {
  backend : Store.kind;
  prof : Cost.profile;
  tables : (string, table) Hashtbl.t;
  mutable txn : undo list option;  (* Some log when a txn is open *)
  mutable cost : float;
}

let create backend =
  {
    backend;
    prof = Store.profile backend;
    tables = Hashtbl.create 16;
    txn = None;
    cost = 0.0;
  }

let kind t = t.backend

let charge t c = t.cost <- t.cost +. c

let take_cost t =
  let c = t.cost in
  t.cost <- 0.0;
  c

let create_table t schema =
  let name = schema.Schema.table in
  if Hashtbl.mem t.tables name then Error (name ^ ": table exists")
  else begin
    Hashtbl.replace t.tables name
      { schema; store = Store.create t.backend; indexes = Hashtbl.create 4 };
    Ok ()
  end

let drop_table t name =
  let present = Hashtbl.mem t.tables name in
  Hashtbl.remove t.tables name;
  present

let table t name = Hashtbl.find_opt t.tables name

let schema t name = Option.map (fun tb -> tb.schema) (table t name)

let tables t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tables []
  |> List.sort String.compare

let row_count t name =
  match table t name with Some tb -> tb.store.Store.count () | None -> 0

let log_undo t u =
  match t.txn with Some log -> t.txn <- Some (u :: log) | None -> ()

(* Physical writes: keep secondary indexes in sync with the row store. *)
let index_key row (idx : index) key = row.(idx.column) :: key

(* Structural identity of two column values. An index entry is rewritten
   only when its column changed; [Value.compare] would call [Int 1] and
   [Float 1.0] equal and leave the old value's entry behind. *)
let same_value a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Float _, _ | _, Value.Float _ -> false
  | _ -> a = b

let raw_insert tb key row =
  let old = tb.store.Store.find key in
  tb.store.Store.insert key row;
  Hashtbl.iter
    (fun _ idx ->
      match old with
      | Some old when same_value old.(idx.column) row.(idx.column) -> ()
      | Some old ->
          idx.entries <-
            Btree.insert
              (Btree.remove idx.entries (index_key old idx key))
              (index_key row idx key) ()
      | None -> idx.entries <- Btree.insert idx.entries (index_key row idx key) ())
    tb.indexes

let raw_delete tb key =
  match tb.store.Store.find key with
  | None -> false
  | Some old ->
      ignore (tb.store.Store.delete key);
      Hashtbl.iter
        (fun _ idx -> idx.entries <- Btree.remove idx.entries (index_key old idx key))
        tb.indexes;
      true

let with_table t name f =
  match table t name with
  | None -> Error ("unknown table " ^ name)
  | Some tb -> f tb

let insert t name row =
  with_table t name (fun tb ->
      charge t t.prof.Cost.point_write;
      match Schema.check_row tb.schema row with
      | Error e -> Error e
      | Ok () ->
          let key = Schema.key_of_row tb.schema row in
          if tb.store.Store.find key <> None then
            Error (name ^ ": duplicate key")
          else begin
            raw_insert tb key row;
            log_undo t (U_inserted (name, key));
            Ok ()
          end)

let upsert t name row =
  with_table t name (fun tb ->
      charge t t.prof.Cost.point_write;
      match Schema.check_row tb.schema row with
      | Error e -> Error e
      | Ok () ->
          let key = Schema.key_of_row tb.schema row in
          (match tb.store.Store.find key with
          | Some old -> log_undo t (U_updated (name, old))
          | None -> log_undo t (U_inserted (name, key)));
          raw_insert tb key row;
          Ok ())

let get t name key =
  match table t name with
  | None -> None
  | Some tb ->
      charge t t.prof.Cost.point_read;
      tb.store.Store.find key

let update t name key f =
  with_table t name (fun tb ->
      charge t (t.prof.Cost.point_read +. t.prof.Cost.point_write);
      match tb.store.Store.find key with
      | None -> Ok false
      | Some old ->
          let updated = f (Array.copy old) in
          if
            Store.key_compare (Schema.key_of_row tb.schema updated) key <> 0
          then Error (name ^ ": update must not change the primary key")
          else begin
            match Schema.check_row tb.schema updated with
            | Error e -> Error e
            | Ok () ->
                log_undo t (U_updated (name, old));
                raw_insert tb key updated;
                Ok true
          end)

let delete t name key =
  with_table t name (fun tb ->
      charge t t.prof.Cost.point_write;
      match tb.store.Store.find key with
      | None -> Ok false
      | Some old ->
          ignore (raw_delete tb key);
          log_undo t (U_deleted (name, old));
          Ok true)

let scan t name ~pred =
  with_table t name (fun tb ->
      let out = ref [] in
      let visited = ref 0 in
      tb.store.Store.iter_sorted (fun _ row ->
          incr visited;
          if pred row then out := row :: !out);
      charge t (float_of_int !visited *. t.prof.Cost.scan_row);
      Ok (List.rev !out))

let scan_update t name ~pred ~f =
  with_table t name (fun tb ->
      match scan t name ~pred with
      | Error e -> Error e
      | Ok rows ->
          let result = ref (Ok 0) in
          List.iter
            (fun row ->
              match !result with
              | Error _ -> ()
              | Ok n -> (
                  let key = Schema.key_of_row tb.schema row in
                  match update t name key f with
                  | Error e -> result := Error e
                  | Ok _ -> result := Ok (n + 1)))
            rows;
          !result)

let scan_delete t name ~pred =
  with_table t name (fun tb ->
      match scan t name ~pred with
      | Error e -> Error e
      | Ok rows ->
          List.iter
            (fun row ->
              ignore (delete t name (Schema.key_of_row tb.schema row)))
            rows;
          Ok (List.length rows))

let begin_txn t =
  match t.txn with
  | Some _ ->
      Sim.Invariant.fail "database" "begin_txn: transaction already open"
  | None ->
      charge t t.prof.Cost.txn_overhead;
      t.txn <- Some []

let in_txn t = t.txn <> None

let commit t = t.txn <- None

let rollback t =
  match t.txn with
  | None -> ()
  | Some log ->
      t.txn <- None;
      (* Apply inverses newest-first; bypass logging (txn is closed) but
         keep secondary indexes in sync. *)
      List.iter
        (fun u ->
          match u with
          | U_inserted (name, key) -> (
              match table t name with
              | Some tb -> ignore (raw_delete tb key)
              | None -> ())
          | U_deleted (name, row) | U_updated (name, row) -> (
              match table t name with
              | Some tb -> raw_insert tb (Schema.key_of_row tb.schema row) row
              | None -> ()))
        log

let dump t =
  let out = ref [] in
  List.iter
    (fun name ->
      match table t name with
      | None -> ()
      | Some tb ->
          tb.store.Store.iter_sorted (fun _ row ->
              let bytes =
                Array.fold_left (fun a v -> a + Value.serialized_size v) 0 row
              in
              charge t (Cost.serialize_row ~columns:(Array.length row) ~bytes);
              out := (name, row) :: !out))
    (tables t);
  List.rev !out

let load_rows t rows =
  let result = ref (Ok ()) in
  List.iter
    (fun (name, row) ->
      match !result with
      | Error _ -> ()
      | Ok () -> (
          match table t name with
          | None -> result := Error ("unknown table " ^ name)
          | Some tb -> (
              match Schema.check_row tb.schema row with
              | Error e -> result := Error e
              | Ok () ->
                  let bytes =
                    Array.fold_left
                      (fun a v -> a + Value.serialized_size v)
                      0 row
                  in
                  charge t
                    (Cost.bulk_insert_row ~columns:(Array.length row) ~bytes);
                  raw_insert tb (Schema.key_of_row tb.schema row) row)))
    rows;
  !result

let clear_data t =
  Hashtbl.iter
    (fun _ tb ->
      tb.store.Store.clear ();
      Hashtbl.iter
        (fun _ idx -> idx.entries <- Btree.create ~cmp:Store.key_compare)
        tb.indexes)
    t.tables

(* ---------------- secondary indexes ---------------- *)

let create_index t name column =
  with_table t name (fun tb ->
      let column_up = String.uppercase_ascii column in
      if Hashtbl.mem tb.indexes column_up then
        Error (Printf.sprintf "%s: index on %s exists" name column)
      else
        match
          List.find_index
            (fun c -> String.uppercase_ascii c.Schema.name = column_up)
            tb.schema.Schema.columns
        with
        | None -> Error (Printf.sprintf "%s: unknown column %s" name column)
        | Some col ->
            let idx =
              { column = col; entries = Btree.create ~cmp:Store.key_compare }
            in
            tb.store.Store.iter_sorted (fun key row ->
                charge t t.prof.Cost.point_write;
                idx.entries <- Btree.insert idx.entries (index_key row idx key) ());
            Hashtbl.replace tb.indexes column_up idx;
            Ok ())

let drop_index t name column =
  match table t name with
  | None -> false
  | Some tb ->
      let column_up = String.uppercase_ascii column in
      let present = Hashtbl.mem tb.indexes column_up in
      Hashtbl.remove tb.indexes column_up;
      present

let indexed_columns t name =
  match table t name with
  | None -> []
  | Some tb ->
      Hashtbl.fold (fun c _ acc -> c :: acc) tb.indexes []
      |> List.sort String.compare

let rec has_prefix prefix key =
  match (prefix, key) with
  | [], _ -> true
  | p :: prefix, k :: key -> Value.compare p k = 0 && has_prefix prefix key
  | _ :: _, [] -> false

(* Ordered walk over the index entries [value :: primary key] that start
   with [prefix], from [lo] on, until [f] says stop or the prefix ends:
   O(entries visited) on every backend, since the index is a B-tree.
   Each visited entry is a leaf step plus a row fetch, a few sequential
   reads far below a cold point read; the descent is one point read. *)
let index_walk t name ~column ~prefix ?(lo = prefix) f =
  with_table t name (fun tb ->
      match Hashtbl.find_opt tb.indexes (String.uppercase_ascii column) with
      | None -> Error (Printf.sprintf "%s: no index on %s" name column)
      | Some idx ->
          let lo = if Store.key_compare lo prefix < 0 then prefix else lo in
          Btree.iter_while ~lo:(Some lo)
            (fun composite () ->
              has_prefix prefix composite
              && begin
                   charge t (t.prof.Cost.scan_row *. 4.0);
                   match tb.store.Store.find (List.tl composite) with
                   | Some row -> f row
                   | None -> true
                 end)
            idx.entries;
          charge t t.prof.Cost.point_read;
          Ok ())

let lookup_eq t name ~column ~value =
  let out = ref [] in
  index_walk t name ~column ~prefix:[ value ] (fun row ->
      out := row :: !out;
      true)
  |> Result.map (fun () -> List.rev !out)

let content_hash t =
  let acc = ref 0 in
  List.iter
    (fun name ->
      match table t name with
      | None -> ()
      | Some tb ->
          tb.store.Store.iter_sorted (fun key row ->
              let h = Hashtbl.hash (name, key, Array.to_list row) in
              acc := (!acc * 31) + h))
    (tables t);
  !acc
