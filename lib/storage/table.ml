open Nbsc_value
open Nbsc_wal

(* One superseded row state, kept for snapshot readers. [v_row = None]
   is a delete tombstone: a reader whose snapshot covers the deleting
   transaction resolves to "no row" instead of falling through to an
   older committed version. Stamps are the overwritten record's own
   (lsn, txn) — commit-LSN resolution happens above storage, which only
   records what it was told. *)
type version = {
  v_row : Row.t option;
  v_lsn : Lsn.t;
  v_txn : int;
}

(* A key's superseded states, newest first, and whether the key waits
   in its manager's reclamation queue. The flag is exact: a queued
   chain keeps its record, even empty, until its queue entry drains,
   so a key is never queued twice. *)
type chain = {
  mutable entries : version list;
  mutable queued : bool;
}

type t = {
  name : string;
  schema : Schema.t;
  (* Key positions compiled once at creation: every heap operation
     projects the key, and rebuilding the position list (plus a
     list-walking projection) per call dominated the table hot path. *)
  key_positions : int array;
  key_member : bool array;  (* indexed by column position *)
  heap : Record.t Row.Key.Tbl.t;
  (* Version chains; the heap record is always the newest state and is
     not duplicated here. Pruned one chain at a time by the manager
     ([drop_versions], [prune_versions]). *)
  versions : chain Row.Key.Tbl.t;
  mutable nversions : int;
  (* Every hash index name with the index that serves it, in
     [index_definitions] order. A name given the positions of a filled
     index shares that index: T's [by_s_key] and [by_join] name the
     same column whenever S's key is the join column, and one index
     then serves both. *)
  mutable index_names : (string * Index.t) list;
  (* The distinct indexes of [index_names], each once: what writes
     maintain. *)
  mutable indexes : Index.t list;
  mutable ordered : Ordered_index.t list;
  (* Arrival order of keys; the fuzzy cursor walks this like a page
     scan. Deleted keys become stale entries that lookups skip, and
     delete+reinsert appends the key again — both reclaimed by
     [maybe_compact] once the stale fraction passes 1/2, but only while
     no fuzzy cursor is live (cursor positions index into this array). *)
  mutable arrival : Row.Key.t array;
  mutable arrival_len : int;
  mutable live_cursors : int;
  (* Consulted before materializing a version entry for an overwritten
     committed (system, txn = 0) state. The transaction manager wires
     this to "is any snapshot transaction active?", so the bulk system
     writes of population and propagation pay nothing when nobody can
     ever resolve the overwritten state: a snapshot that begins later
     pins at a higher LSN and reads the new heap record directly.
     Uncommitted user writes always push — a snapshot may begin before
     they commit. Default: retain everything (bare tables without a
     manager stay fully versioned). *)
  mutable retain_versions : unit -> bool;
  (* The manager's queue: called when a chain with no queue entry needs
     one (a system overwrite pushed on it, a writer committed under a
     snapshot, a prune left entries behind), with the LSN the horizon
     must pass before the key is worth pruning again. *)
  mutable defer : Row.Key.t -> Lsn.t -> unit;
  (* The LSN from which snapshot readers see the table: [Some Lsn.zero]
     for every table but a change's targets, which are [None] (hidden)
     from their creation until the change is done. No snapshot reads
     a hidden table, and one that begins after the reveal finds every
     earlier write stamped below its begin and never needs a state one
     of them overwrote, so a hidden table's system overwrites push
     nothing whatever [retain_versions] says. *)
  mutable visible_from : Lsn.t option;
  (* Names of hash indexes an online build ([Index_build]) registered
     and no build has finished filling yet: writes maintain them, but
     a lookup would miss rows the build has not reached, so lookups
     refuse them. *)
  mutable partial : string list;
  flagged : flagged;
}

(* The keys whose record carries the [Unknown] flag (split of possibly
   inconsistent data, paper Sec. 5.3), kept exact by every heap
   mutation so counting them and picking one are O(1) instead of a
   fold over the table. A dense array plus each key's slot in it;
   removal moves the last key into the hole. *)
and flagged = {
  mutable keys : Row.Key.t array;
  mutable count : int;
  slot : int Row.Key.Tbl.t;
}

(* Initial heap buckets and arrival slots, and index buckets, when the
   creator gives no size hint: user tables, [Db.load] and snapshot
   restore. A schema change sizes its targets from its sources; a hint
   only ever raises these, so a small table iterates in the same order
   whether or not it was sized. *)
let default_heap = 1024
let default_index = 256

let is_partial t name = List.exists (String.equal name) t.partial

(* The filled index over [positions], if the table has one. A partial
   index belongs to its online build alone and is never shared. *)
let filled_index t positions =
  List.find_map
    (fun (name, ix) ->
       if List.equal Int.equal (Index.positions ix) positions
          && not (is_partial t name)
       then Some ix
       else None)
    t.index_names

let add_name t name ix =
  t.index_names <- (name, ix) :: t.index_names;
  if not (List.memq ix t.indexes) then t.indexes <- ix :: t.indexes

let create ?(size = 0) ?(indexes = []) ~name schema =
  let heap_size = max default_heap size in
  let index_size = max default_index size in
  let key_positions = Array.of_list (Schema.key_positions schema) in
  let key_member = Array.make (Schema.arity schema) false in
  Array.iter (fun i -> key_member.(i) <- true) key_positions;
  let t =
    { name;
      schema;
      key_positions;
      key_member;
      heap = Row.Key.Tbl.create heap_size;
      versions = Row.Key.Tbl.create 64;
      nversions = 0;
      index_names = [];
      indexes = [];
      ordered = [];
      arrival = Array.make heap_size [||];
      arrival_len = 0;
      live_cursors = 0;
      retain_versions = (fun () -> true);
      defer = (fun _ _ -> ());
      visible_from = Some Lsn.zero;
      partial = [];
      flagged = { keys = [||]; count = 0; slot = Row.Key.Tbl.create 16 } }
  in
  List.iter
    (fun (index_name, cols) ->
       let positions = Schema.positions schema cols in
       add_name t index_name
         (match filled_index t positions with
          | Some ix -> ix
          | None -> Index.create ~size:index_size ~positions))
    indexes;
  (* [add_name] prepends; the declared names keep their order. *)
  t.index_names <- List.rev t.index_names;
  t

let name t = t.name
let schema t = t.schema
let cardinality t = Row.Key.Tbl.length t.heap
let key_of_row t row =
  let n = Array.length t.key_positions in
  let out = Array.make n Value.Null in
  for i = 0 to n - 1 do
    out.(i) <- Row.get row t.key_positions.(i)
  done;
  Row.unsafe_of_array out
let find t key = Row.Key.Tbl.find_opt t.heap key
let mem t key = Row.Key.Tbl.mem t.heap key

let arrival_length t = t.arrival_len

let buckets t =
  ("heap", (Row.Key.Tbl.stats t.heap).Hashtbl.num_buckets)
  :: List.map (fun (name, ix) -> (name, Index.buckets ix)) t.index_names

let physical_indexes t = List.length t.indexes

(* {2 Unknown-flagged keys} *)

let flag_key t key =
  let f = t.flagged in
  if not (Row.Key.Tbl.mem f.slot key) then begin
    if f.count = Array.length f.keys then begin
      let bigger = Array.make (max 16 (2 * f.count)) [||] in
      Array.blit f.keys 0 bigger 0 f.count;
      f.keys <- bigger
    end;
    f.keys.(f.count) <- key;
    Row.Key.Tbl.replace f.slot key f.count;
    f.count <- f.count + 1
  end

let unflag t key =
  let f = t.flagged in
  match Row.Key.Tbl.find_opt f.slot key with
  | None -> ()
  | Some i ->
    Row.Key.Tbl.remove f.slot key;
    let last = f.count - 1 in
    if i < last then begin
      let moved = f.keys.(last) in
      f.keys.(i) <- moved;
      Row.Key.Tbl.replace f.slot moved i
    end;
    f.keys.(last) <- [||];
    f.count <- last

let unknown_count t = t.flagged.count

let first_unknown t =
  if t.flagged.count = 0 then None
  else
    let key = t.flagged.keys.(0) in
    Some (key, Row.Key.Tbl.find t.heap key)

(* Rewrite [arrival] keeping the first occurrence of every key still in
   the heap, in order. Only called with no live cursor, so no position
   can dangle. The array shrinks back toward the live count (churn must
   not leave a table holding its high-water arrival forever). *)
let compact_arrival t =
  let live = Row.Key.Tbl.length t.heap in
  let cap = ref default_heap in
  while !cap < live do cap := !cap * 2 done;
  let fresh = Array.make !cap [||] in
  let kept = Row.Key.Tbl.create (max 16 live) in
  let n = ref 0 in
  for i = 0 to t.arrival_len - 1 do
    let key = t.arrival.(i) in
    if Row.Key.Tbl.mem t.heap key && not (Row.Key.Tbl.mem kept key) then begin
      Row.Key.Tbl.replace kept key ();
      fresh.(!n) <- key;
      incr n
    end
  done;
  t.arrival <- fresh;
  t.arrival_len <- !n

let maybe_compact t =
  if
    t.live_cursors = 0
    && t.arrival_len >= 64
    && t.arrival_len > 2 * Row.Key.Tbl.length t.heap
  then compact_arrival t

let push_arrival t key =
  maybe_compact t;
  if t.arrival_len >= Array.length t.arrival then begin
    let bigger = Array.make (Array.length t.arrival * 2) [||] in
    Array.blit t.arrival 0 bigger 0 t.arrival_len;
    t.arrival <- bigger
  end;
  t.arrival.(t.arrival_len) <- key;
  t.arrival_len <- t.arrival_len + 1

(* {2 Version chains} *)

(* Push the overwritten state and return the key's chain. *)
let push_old_record t key (old : Record.t) =
  let v =
    { v_row = Some old.Record.row; v_lsn = old.Record.lsn;
      v_txn = old.Record.txn }
  in
  t.nversions <- t.nversions + 1;
  match Row.Key.Tbl.find_opt t.versions key with
  | Some c ->
    c.entries <- v :: c.entries;
    c
  | None ->
    let c = { entries = [ v ]; queued = false } in
    Row.Key.Tbl.replace t.versions key c;
    c

let set_version_policy t ~retain ~defer =
  t.retain_versions <- retain;
  t.defer <- defer

let hide t = t.visible_from <- None
let reveal t ~from = t.visible_from <- Some from

let visible_at t lsn =
  match t.visible_from with
  | Some from -> Lsn.(from <= lsn)
  | None -> false

(* Whether overwriting a state written by [txn] must keep the old
   version: always for user transactions (their heap record stays
   invisible to snapshots until they commit), and for system writes
   only on a visible table while the hint says a snapshot might still
   resolve it. *)
let must_retain t ~txn =
  txn <> 0
  || (match t.visible_from with
      | Some _ -> t.retain_versions ()
      | None -> false)

let defer_chain t key c lsn =
  if not c.queued then begin
    c.queued <- true;
    t.defer key lsn
  end

(* A system write commits at its own LSN and no transaction finish
   covers its push, so its key is queued here, once while queued. *)
let defer_system_push t key c ~txn lsn = if txn = 0 then defer_chain t key c lsn

let has_versions t key =
  match Row.Key.Tbl.find_opt t.versions key with
  | Some { entries = _ :: _; _ } -> true
  | Some { entries = []; _ } | None -> false

let versions t key =
  match Row.Key.Tbl.find_opt t.versions key with
  | Some c -> c.entries
  | None -> []

let versions_count t = t.nversions

let defer_versions t key ~lsn =
  match Row.Key.Tbl.find_opt t.versions key with
  | Some ({ entries = _ :: _; _ } as c) -> defer_chain t key c lsn
  | Some { entries = []; _ } | None -> ()

(* A chain left empty goes, unless a queue entry still names it. *)
let settle t key c ~reclaimed =
  t.nversions <- t.nversions - reclaimed;
  match c.entries with
  | [] when not c.queued -> Row.Key.Tbl.remove t.versions key
  | [] | _ :: _ -> ()

let drop_versions t key =
  match Row.Key.Tbl.find_opt t.versions key with
  | None -> 0
  | Some c ->
    let reclaimed = List.length c.entries in
    c.entries <- [];
    settle t key c ~reclaimed;
    reclaimed

let prune_versions t key ~horizon ~classify ~dequeued ~requeue =
  match Row.Key.Tbl.find_opt t.versions key with
  | None -> 0
  | Some c ->
    if dequeued then c.queued <- false;
    (* A version is reachable only while no newer committed state at or
       below the horizon covers it: every live and future snapshot sits
       at or above the horizon and resolves to that newer state first.
       The heap record is the newest state of all. *)
    let covered =
      ref
        (match Row.Key.Tbl.find_opt t.heap key with
         | Some r ->
           (match classify ~txn:r.Record.txn ~lsn:r.Record.lsn with
            | `At c -> Lsn.(c <= horizon)
            | `Dead | `Live -> false)
         | None -> false)
    in
    let reclaimed = ref 0 in
    let keep =
      List.filter
        (fun v ->
           match classify ~txn:v.v_txn ~lsn:v.v_lsn with
           | `Live ->
             (* An uncommitted writer's overwritten state — only that
                writer can reach it, but keep it unconditionally:
                cheap, and robust against unlocked system writes. *)
             true
           | `Dead ->
             incr reclaimed;
             false
           | `At c ->
             if !covered then begin
               incr reclaimed;
               false
             end
             else if Lsn.(c <= horizon) then begin
               covered := true;
               (* This is the version every snapshot at or above the
                  horizon resolves to — keep it, unless it is a
                  tombstone with no live heap record, where end-of-
                  chain already means "no row". *)
               match v.v_row with
               | None ->
                 incr reclaimed;
                 false
               | Some _ -> true
             end
             else true)
        c.entries
    in
    c.entries <- keep;
    (match keep with [] -> () | _ :: _ -> defer_chain t key c requeue);
    settle t key c ~reclaimed:!reclaimed;
    !reclaimed

let index_insert t key row =
  List.iter (fun ix -> Index.insert ix ~key row) t.indexes;
  List.iter (fun ix -> Ordered_index.insert ix ~key row) t.ordered

let index_remove t key row =
  List.iter (fun ix -> Index.remove ix ~key row) t.indexes;
  List.iter (fun ix -> Ordered_index.remove ix ~key row) t.ordered

let insert t ~lsn ?txn ?counter ?flag ?aux row =
  if Row.arity row <> Schema.arity t.schema then
    invalid_arg
      (Printf.sprintf "Table.insert(%s): arity %d, expected %d" t.name
         (Row.arity row) (Schema.arity t.schema));
  let key = key_of_row t row in
  if Row.Key.Tbl.mem t.heap key then Error `Duplicate_key
  else begin
    Row.Key.Tbl.replace t.heap key (Record.make ?txn ?counter ?flag ?aux ~lsn row);
    if flag = Some Record.Unknown then flag_key t key;
    index_insert t key row;
    push_arrival t key;
    Ok ()
  end

let check_not_key t changes =
  List.iter
    (fun (i, _) ->
       if i >= 0 && i < Array.length t.key_member && t.key_member.(i) then
         invalid_arg
           (Printf.sprintf "Table.update(%s): change touches key column %d"
              t.name i))
    changes

let update t ~lsn ?(txn = 0) ~key changes =
  match Row.Key.Tbl.find_opt t.heap key with
  | None -> Error `Not_found
  | Some record ->
    check_not_key t changes;
    if must_retain t ~txn then
      defer_system_push t key (push_old_record t key record) ~txn lsn;
    let row' = Row.update record.Record.row changes in
    let record' =
      Record.with_txn (Record.with_lsn (Record.with_row record row') lsn) txn
    in
    (* An update that leaves every indexed column alone leaves that
       index's entry (projection and key) unchanged — skip the
       remove+reinsert. Most workload updates touch no index at all. *)
    List.iter
      (fun ix ->
         if Index.touches ix changes then begin
           Index.remove ix ~key record.Record.row;
           Index.insert ix ~key row'
         end)
      t.indexes;
    List.iter
      (fun ix ->
         if Ordered_index.touches ix changes then begin
           Ordered_index.remove ix ~key record.Record.row;
           Ordered_index.insert ix ~key row'
         end)
      t.ordered;
    Row.Key.Tbl.replace t.heap key record';
    Ok record'

let set_record t ~key record =
  match Row.Key.Tbl.find_opt t.heap key with
  | None -> Error `Not_found
  | Some old ->
    if not (Row.Key.equal (key_of_row t record.Record.row) key) then
      invalid_arg (Printf.sprintf "Table.set_record(%s): key mismatch" t.name);
    (* [set_record] callers are all system-side (counter bumps, the
       consistency checker): gate like a system write. *)
    if must_retain t ~txn:0 then
      defer_system_push t key (push_old_record t key old) ~txn:0
        record.Record.lsn;
    index_remove t key old.Record.row;
    Row.Key.Tbl.replace t.heap key record;
    index_insert t key record.Record.row;
    (match (old.Record.flag, record.Record.flag) with
     | Record.Consistent, Record.Unknown -> flag_key t key
     | Record.Unknown, Record.Consistent -> unflag t key
     | Record.Consistent, Record.Consistent | Record.Unknown, Record.Unknown ->
       ());
    Ok ()

let delete t ~lsn ?(txn = 0) key =
  match Row.Key.Tbl.find_opt t.heap key with
  | None -> Error `Not_found
  | Some record ->
    (* The tombstone records the delete itself: a snapshot that covers
       the deleting transaction must resolve to "no row", not fall
       through to the pre-delete version. Unlike update, an elided
       delete push is unsafe whenever a chain already exists — with
       the heap record gone, a later snapshot's chain walk would fall
       through to a stale pre-delete version — so retain in that case
       regardless of the hint. *)
    if must_retain t ~txn || has_versions t key then begin
      let c = push_old_record t key record in
      c.entries <- { v_row = None; v_lsn = lsn; v_txn = txn } :: c.entries;
      t.nversions <- t.nversions + 1;
      defer_system_push t key c ~txn lsn
    end;
    Row.Key.Tbl.remove t.heap key;
    if record.Record.flag = Record.Unknown then unflag t key;
    index_remove t key record.Record.row;
    maybe_compact t;
    Ok record

let index_definitions t =
  List.map
    (fun (name, ix) ->
       (name, List.map (fun i -> Schema.name_at t.schema i) (Index.positions ix)))
    t.index_names

let ordered_index_definitions t =
  List.map
    (fun ix ->
       ( Ordered_index.name ix,
         List.map
           (fun i -> Schema.name_at t.schema i)
           (Ordered_index.positions ix) ))
    t.ordered

let add_ordered_index t ~name ~columns =
  let exists =
    List.exists (fun ix -> String.equal (Ordered_index.name ix) name) t.ordered
  in
  if not exists then begin
    let ix =
      Ordered_index.create ~name ~positions:(Schema.positions t.schema columns)
    in
    Row.Key.Tbl.iter
      (fun key r -> Ordered_index.insert ix ~key r.Record.row)
      t.heap;
    t.ordered <- ix :: t.ordered
  end

let find_ordered t name =
  match
    List.find_opt (fun ix -> String.equal (Ordered_index.name ix) name) t.ordered
  with
  | Some ix -> ix
  | None -> raise Not_found

let ordered_range t ~index ?lo ?hi () =
  Ordered_index.range (find_ordered t index) ?lo ?hi ()

let find_index_opt t name = List.assoc_opt name t.index_names

let mark_filled t name =
  t.partial <- List.filter (fun n -> not (String.equal n name)) t.partial

(* A new index is sized from the rows it is about to hold. *)
let register_index t ~name ~positions =
  let ix =
    Index.create ~size:(max default_index (cardinality t)) ~positions
  in
  add_name t name ix;
  ix

let add_index t ~name ~columns =
  let fill ix =
    Row.Key.Tbl.iter (fun key r -> Index.insert ix ~key r.Record.row) t.heap
  in
  match find_index_opt t name with
  | None ->
    let positions = Schema.positions t.schema columns in
    (match filled_index t positions with
     | Some ix -> add_name t name ix
     | None -> fill (register_index t ~name ~positions))
  | Some ix ->
    (* An online build that was abandoned left it partial: set inserts
       are idempotent, so filling over what it holds completes it. *)
    if is_partial t name then begin
      fill ix;
      mark_filled t name
    end

let find_index t name =
  match find_index_opt t name with
  | Some ix -> ix
  | None -> raise Not_found

(* The one gate in front of every read of a hash index. *)
let readable_index t index =
  let ix = find_index t index in
  if t.partial <> [] && is_partial t index then
    invalid_arg
      (Printf.sprintf "Table(%s): index %S is still being filled" t.name index);
  ix

let index_lookup t ~index proj = Index.lookup (readable_index t index) proj
let index_entries t ~index = Index.entries (readable_index t index)

let index_lookup_records t ~index proj =
  List.filter_map
    (fun key ->
       match find t key with Some r -> Some (key, r) | None -> None)
    (index_lookup t ~index proj)

let iter t f = Row.Key.Tbl.iter f t.heap

let fold t ~init ~f =
  Row.Key.Tbl.fold (fun k r acc -> f acc k r) t.heap init

let to_rows t = fold t ~init:[] ~f:(fun acc _ r -> r.Record.row :: acc)

let max_lsn t =
  fold t ~init:Lsn.zero ~f:(fun acc _ r -> Lsn.max acc r.Record.lsn)

(* Arrival slots one scan call may walk, per row it may return: deleted
   keys leave stale slots that cost a walk and yield nothing, and
   compaction is off while a scan is live. [limit] may be [max_int], so
   compare before multiplying. *)
let walk_factor = 4

let walk_stop t ~pos ~limit =
  let left = t.arrival_len - pos in
  if limit >= left then t.arrival_len else pos + min left (walk_factor * limit)

module Fuzzy_cursor = struct
  type table = t

  type t = {
    table : table;
    mutable pos : int;
    seen : unit Row.Key.Tbl.t;
    mutable scanned : int;
    mutable live : bool;
  }

  let make table =
    table.live_cursors <- table.live_cursors + 1;
    { table;
      pos = 0;
      seen = Row.Key.Tbl.create (max default_heap table.arrival_len);
      scanned = 0;
      live = true }

  let close c =
    if c.live then begin
      c.live <- false;
      c.table.live_cursors <- c.table.live_cursors - 1
    end

  let next_batch c ~limit =
    let batch = ref [] in
    let n = ref 0 in
    let stop = walk_stop c.table ~pos:c.pos ~limit in
    while !n < limit && c.pos < stop do
      let key = c.table.arrival.(c.pos) in
      c.pos <- c.pos + 1;
      if not (Row.Key.Tbl.mem c.seen key) then begin
        Row.Key.Tbl.replace c.seen key ();
        match Row.Key.Tbl.find_opt c.table.heap key with
        | Some record ->
          batch := record :: !batch;
          incr n;
          c.scanned <- c.scanned + 1
        | None -> ()  (* deleted since arrival: skip, like a page scan *)
      end
    done;
    List.rev !batch

  let finished c = c.pos >= c.table.arrival_len
  let position c = c.pos
  let scanned c = c.scanned
end

(* The fill walks the arrival array like a fuzzy cursor, with the same
   walk bound, but needs no set of keys already reported: meeting a key
   twice (deleted and reinserted) inserts its projection twice, which a
   set insert absorbs. *)
module Index_build = struct
  type table = t

  type t = {
    table : table;
    name : string;
    ix : Index.t;
    mutable pos : int;  (* next arrival slot *)
    mutable filled : bool;
    mutable live : bool;  (* counted in [live_cursors]: no compaction *)
  }

  let start table ~name ~columns =
    match find_index_opt table name with
    | Some ix when not (is_partial table name) ->
      { table; name; ix; pos = 0; filled = true; live = false }
    | found ->
      let ix =
        match found with
        | Some ix -> ix
        | None ->
          (* Resolve first: an unknown column raises before the name
             is marked partial, so no lookup is refused forever. *)
          let positions = Schema.positions table.schema columns in
          table.partial <- name :: table.partial;
          register_index table ~name ~positions
      in
      (* Registered, and compaction stopped, in one step: every key
         live now either gets written (and the write maintains the
         index) or is still live when the walk reaches its slot. *)
      table.live_cursors <- table.live_cursors + 1;
      { table; name; ix; pos = 0; filled = false; live = true }

  let close b =
    if b.live then begin
      b.live <- false;
      b.table.live_cursors <- b.table.live_cursors - 1
    end

  let step b ~limit =
    if b.live then begin
      let t = b.table in
      let stop = walk_stop t ~pos:b.pos ~limit in
      let n = ref 0 in
      while !n < limit && b.pos < stop do
        let key = t.arrival.(b.pos) in
        b.pos <- b.pos + 1;
        match Row.Key.Tbl.find_opt t.heap key with
        | Some r ->
          Index.insert b.ix ~key r.Record.row;
          incr n
        | None -> ()
      done;
      if b.pos >= t.arrival_len then begin
        close b;
        b.filled <- true;
        mark_filled t b.name
      end
    end;
    b.filled
end
