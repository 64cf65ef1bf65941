open Nbsc_value
open Nbsc_wal
open Nbsc_storage
open Nbsc_txn

(* One source table being scanned. Cursors open lazily (the table
   suspends arrival-array compaction while a cursor is live, so a
   source not yet reached should not pay) and close as soon as their
   scan completes. *)
type source = {
  src_name : string;
  src_table : Table.t;
  mutable src_cursor : Table.Fuzzy_cursor.t option;
  mutable src_done : bool;
}

type t = {
  mgr : Manager.t;
  job : string;
  rules : Propagator.rules;
  chunk : int;
  sources : source list;
  (* Current chunk: buffered scan results (reversed) awaiting the high
     watermark, and the low watermark that opened the chunk. *)
  mutable buffer : (source * Record.t) list;
  mutable buffered : int;
  mutable low : Lsn.t option;
  mutable discarded : int;
  mutable chunks : int;
}

let create mgr ~job ~sources ~rules ~chunk =
  if chunk < 1 then invalid_arg "Virtual_cut: chunk must be >= 1";
  { mgr;
    job;
    rules;
    chunk;
    sources =
      List.map
        (fun (src_name, src_table) ->
           { src_name; src_table; src_cursor = None; src_done = false })
        sources;
    buffer = [];
    buffered = 0;
    low = None;
    discarded = 0;
    chunks = 0 }

let discarded t = t.discarded
let chunks t = t.chunks

let cursor_of src =
  match src.src_cursor with
  | Some c -> c
  | None ->
    let c = Table.Fuzzy_cursor.make src.src_table in
    src.src_cursor <- Some c;
    c

let close_cursor src =
  (match src.src_cursor with
   | Some c -> Table.Fuzzy_cursor.close c
   | None -> ());
  src.src_cursor <- None

let scan_exhausted t = List.for_all (fun s -> s.src_done) t.sources

let finished t = scan_exhausted t && t.low = None && t.buffered = 0

let append_mark t ~high =
  Log.append (Manager.log t.mgr) ~txn:Log_record.system_txn ~prev_lsn:Lsn.zero
    (Log_record.Watermark { job = t.job; high })

(* Every source-table key written between the chunk's watermarks (the
   DBLog "window"): a buffered scan result for such a key is stale by
   definition — some transaction changed the record while the chunk was
   in flight. Keyed per table with the engine's own key equality. *)
let window_writes t ~low ~high =
  let by_table = Hashtbl.create 4 in
  let note op =
    let table = Log_record.op_table op in
    match List.find_opt (fun s -> String.equal s.src_name table) t.sources with
    | None -> ()
    | Some s ->
      let keys =
        match Hashtbl.find_opt by_table table with
        | Some keys -> keys
        | None ->
          let keys = Row.Key.Tbl.create 16 in
          Hashtbl.add by_table table keys;
          keys
      in
      Row.Key.Tbl.replace keys
        (Log_record.op_key (Table.schema s.src_table) op)
        ()
  in
  Log.iter (Manager.log t.mgr) ~from:(Lsn.next low) ~upto:high (fun r ->
      match r.Log_record.body with
      | Log_record.Op op | Log_record.Clr { op; _ } -> note op
      | _ -> ());
  by_table

(* Replay one source record's state through the rules, exactly as if
   its insert had just been logged — the same uniform path the lazy
   demand scan uses, so the LSN gates absorb any overlap with log
   propagation. *)
let ingest t counters src ~lsn row =
  ignore
    (t.rules.Propagator.apply ~lsn
       (Log_record.Insert { table = src.src_name; row }));
  counters.Population.produced <- counters.Population.produced + 1

(* Close the open chunk: high watermark, then apply the buffered rows —
   discarding any superseded inside the window and re-reading those at
   their current state (a row deleted in the window yields nothing; the
   log propagation already carries its delete). *)
let seal t counters ~low =
  let high = append_mark t ~high:true in
  let window = window_writes t ~low ~high in
  List.iter
    (fun (src, record) ->
       let stale =
         match Hashtbl.find_opt window src.src_name with
         | None -> false
         | Some keys ->
           Row.Key.Tbl.mem keys
             (Row.Key.of_row record.Record.row
                (Schema.key_positions (Table.schema src.src_table)))
       in
       if not stale then
         ingest t counters src ~lsn:record.Record.lsn record.Record.row
       else begin
         t.discarded <- t.discarded + 1;
         let key =
           Row.Key.of_row record.Record.row
             (Schema.key_positions (Table.schema src.src_table))
         in
         match Table.find src.src_table key with
         | None -> ()
         | Some cur -> ingest t counters src ~lsn:cur.Record.lsn cur.Record.row
       end)
    (List.rev t.buffer);
  t.buffer <- [];
  t.buffered <- 0;
  t.low <- None;
  t.chunks <- t.chunks + 1

let step t counters ~limit =
  if finished t then true
  else begin
    let low =
      match t.low with
      | Some l -> l
      | None ->
        let l = append_mark t ~high:false in
        t.low <- Some l;
        l
    in
    let remaining = ref (max 1 limit) in
    let scanning = ref true in
    while !scanning && !remaining > 0 && t.buffered < t.chunk do
      match List.find_opt (fun s -> not s.src_done) t.sources with
      | None -> scanning := false
      | Some src ->
        let cursor = cursor_of src in
        (match
           Table.Fuzzy_cursor.next_batch cursor
             ~limit:(min !remaining (t.chunk - t.buffered))
         with
         | [] when Table.Fuzzy_cursor.finished cursor ->
           close_cursor src;
           src.src_done <- true
         | [] ->
           (* The cursor's walk bound ran out on deleted keys' slots:
              resume at the next quantum. *)
           scanning := false
         | recs ->
           List.iter
             (fun r ->
                t.buffer <- (src, r) :: t.buffer;
                t.buffered <- t.buffered + 1;
                counters.Population.scanned <- counters.Population.scanned + 1)
             recs;
           remaining := !remaining - List.length recs)
    done;
    if t.buffered >= t.chunk || scan_exhausted t then seal t counters ~low;
    finished t
  end

let close t =
  List.iter close_cursor t.sources;
  t.buffer <- [];
  t.buffered <- 0

let population t =
  Population.make
    ~close:(fun () -> close t)
    ~step:(fun counters ~limit -> step t counters ~limit)
    ~finished:(fun () -> finished t)
    ()
