open Nbsc_value
open Nbsc_wal
open Nbsc_storage
module C = Foj_common

(* The population step is pluggable: a transformation supplies a
   bounded stepper over its private scan state, and the framework only
   ever sees the [t] record below. The built-in constructors cover the
   paper's operators; custom transformations use [make] directly. *)

type counters = {
  mutable scanned : int;
  mutable produced : int;
}

type t = {
  c : counters;
  step_fn : limit:int -> bool;
  finished_fn : unit -> bool;
  close_fn : unit -> unit;
}

let make ?(close = fun () -> ()) ~step ~finished () =
  let c = { scanned = 0; produced = 0 } in
  { c;
    step_fn = (fun ~limit -> step c ~limit);
    finished_fn = finished;
    close_fn = close }

let with_fill t ~fill ~close =
  let filled = ref false in
  { t with
    step_fn =
      (fun ~limit ->
         let finished = t.finished_fn () || t.step_fn ~limit in
         if not !filled then filled := fill ~limit;
         finished && !filled);
    finished_fn = (fun () -> !filled && t.finished_fn ());
    close_fn =
      (fun () ->
         close ();
         t.close_fn ()) }

let step t ~limit = t.step_fn ~limit
let finished t = t.finished_fn ()
let scanned t = t.c.scanned
let produced t = t.c.produced
let close t = t.close_fn ()

(* {2 FOJ: hash S, stream R, emit unmatched S leftovers} *)

type foj_phase =
  | Scan_s
  | Scan_r
  | Leftovers of (Row.t * bool ref) Seq.t  (* unmatched, walked lazily *)
  | F_done

let foj f ~r_tbl ~s_tbl =
  let cctx = Foj.ctx f in
  let s_cursor = Table.Fuzzy_cursor.make s_tbl in
  let r_cursor = Table.Fuzzy_cursor.make r_tbl in
  (* join value -> S rows seen with it (one in a clean one-to-many) *)
  let s_hash : (Row.t * bool ref) list Row.Key.Tbl.t =
    Row.Key.Tbl.create (max 1024 (Table.cardinality s_tbl))
  in
  let fphase = ref Scan_s in
  let put_initial c ~presence row =
    ignore (C.put cctx ~lsn:Lsn.zero ~presence row);
    c.produced <- c.produced + 1
  in
  let step c ~limit =
    match !fphase with
    | Scan_s ->
      let batch = Table.Fuzzy_cursor.next_batch s_cursor ~limit in
      c.scanned <- c.scanned + List.length batch;
      List.iter
        (fun (record : Record.t) ->
           let srow = record.Record.row in
           let j = C.join_of_s_row cctx srow in
           let entry = (srow, ref false) in
           let existing =
             match Row.Key.Tbl.find_opt s_hash j with
             | Some e -> e
             | None -> []
           in
           Row.Key.Tbl.replace s_hash j (entry :: existing))
        batch;
      if Table.Fuzzy_cursor.finished s_cursor then begin
        Table.Fuzzy_cursor.close s_cursor;
        fphase := Scan_r
      end;
      false
    | Scan_r ->
      let batch = Table.Fuzzy_cursor.next_batch r_cursor ~limit in
      c.scanned <- c.scanned + List.length batch;
      List.iter
        (fun (record : Record.t) ->
           let rrow = record.Record.row in
           let j = C.join_of_r_row cctx rrow in
           let matches =
             if Row.Key.has_null j then []
             else
               match Row.Key.Tbl.find_opt s_hash j with
               | Some entries -> entries
               | None -> []
           in
           match matches with
           | [] ->
             let row, bits = C.t_row_of_sources cctx ~r:(Some rrow) ~s:None in
             put_initial c ~presence:bits row
           | entries ->
             List.iter
               (fun (srow, matched) ->
                  matched := true;
                  let row, bits =
                    C.t_row_of_sources cctx ~r:(Some rrow) ~s:(Some srow)
                  in
                  put_initial c ~presence:bits row)
               entries)
        batch;
      if Table.Fuzzy_cursor.finished r_cursor then begin
        Table.Fuzzy_cursor.close r_cursor;
        (* [s_hash] is read-only from here on, so a lazy walk over it
           stays valid across quanta: each quantum pays for the entries
           it passes, not for listing every unmatched row at once. *)
        fphase :=
          Leftovers
            (Row.Key.Tbl.to_seq_values s_hash
             |> Seq.flat_map List.to_seq
             |> Seq.filter (fun (_, matched) -> not !matched))
      end;
      false
    | Leftovers remaining ->
      let rec emit n rest =
        if n >= limit then rest
        else
          match rest () with
          | Seq.Nil -> Seq.empty
          | Seq.Cons ((srow, _), rest) ->
            (* These S rows were already counted when [Scan_s] read
               them; emitting a leftover scans nothing new (the sim
               bills scan cost per [scanned] increment). *)
            let row, bits = C.t_row_of_sources cctx ~r:None ~s:(Some srow) in
            put_initial c ~presence:bits row;
            emit (n + 1) rest
      in
      (match (emit 0 remaining) () with
       | Seq.Nil ->
         fphase := F_done;
         true
       | Seq.Cons (next, rest) ->
         fphase := Leftovers (Seq.cons next rest);
         false)
    | F_done -> true
  in
  make ~step
    ~finished:(fun () -> !fphase = F_done)
    ~close:(fun () ->
        Table.Fuzzy_cursor.close s_cursor;
        Table.Fuzzy_cursor.close r_cursor)
    ()

(* {2 Generic sequential scans (split, hsplit, merge, materialized views)} *)

let scan_tagged tables ~ingest =
  let cursors =
    ref (List.map (fun (name, tbl) -> (name, Table.Fuzzy_cursor.make tbl)) tables)
  in
  let step c ~limit =
    match !cursors with
    | [] -> true
    | (table, cursor) :: rest ->
      let batch = Table.Fuzzy_cursor.next_batch cursor ~limit in
      c.scanned <- c.scanned + List.length batch;
      List.iter
        (fun record ->
           ingest ~table record;
           c.produced <- c.produced + 1)
        batch;
      if Table.Fuzzy_cursor.finished cursor then begin
        Table.Fuzzy_cursor.close cursor;
        cursors := rest
      end;
      !cursors = []
  in
  make ~step
    ~finished:(fun () -> !cursors = [])
    ~close:(fun () -> List.iter (fun (_, c) -> Table.Fuzzy_cursor.close c) !cursors)
    ()

let scan_many tables ~ingest =
  scan_tagged
    (List.map (fun tbl -> (Table.name tbl, tbl)) tables)
    ~ingest:(fun ~table:_ record -> ingest record)

let scan_one table ~ingest = scan_many [ table ] ~ingest
