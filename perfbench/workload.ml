(* The three workloads: schemas, seeded data, per-client transaction
   streams and the relational oracle each change must converge to.

   Everything here is a pure function of the seed: the driver builds
   both twins from the same rows and feeds both the same streams, so
   the only difference between them is the schema change. *)

open Nbsc_value
open Nbsc_core

type op =
  | Read of { table : string; key : int }
  | Update of { table : string; key : int; set : (int * Value.t) list }

(* One logical transaction. [snapshot] selects MVCC snapshot reads; a
   failed attempt is retried with the same plan. *)
type plan = { snapshot : bool; ops : op array; digest : int }

type shape = Foj | Split

(* The traffic mix. [Paper] is the paper's workload: transactions of
   [ops_per_txn] record updates, each on the change's sources with
   probability [source_pct] %, else on the dummy table D; [move_pct] %
   of the R updates move the join attribute (not in the paper: without
   them only the FOJ rule for a non-join column would run). [Hot_reads]
   is read-heavy traffic over Zipf-hot keys for the lazy split, which
   the paper does not have. *)
type mix = Paper of { source_pct : int; move_pct : int } | Hot_reads

type t = {
  name : string;
  shape : shape;
  mix : mix;
  big : int;          (** FOJ: rows of R; split: customers *)
  small : int;        (** FOJ: rows of S; split: postal codes *)
  dummy : int;        (** rows of the dummy table D ([Paper] traffic) *)
  zipf : Zipf.t option;  (** key skew of the user traffic ([None] = uniform) *)
  k : int;            (** client turns per [Transform.step] on the change side *)
  window : int;       (** client turns per interleaving window *)
  warmup_windows : int;  (** windows per side before the change starts *)
  options : Options.t;
  durable : bool;
  ckpt_every : int;   (** commits per side between checkpoints (durable) *)
  crash_after : int;
      (** propagation quanta after the first post-population checkpoint
          at which the change side crashes (durable) *)
  quanta_budget : int;  (** convergence guard *)
  episode_s : float;
      (** wall-clock seconds per episode on the reference host, set-up
          and row generation included: a run of [--seconds S] does
          [max 1 (S / episode_s)] identical episodes, so every run does
          the same work whatever the host speed *)
}

let clients = 8

(* The transaction of the paper's evaluation: 10 record updates. *)
let ops_per_txn = 10

(* Rows of the dummy table D that takes the updates not aimed at the
   sources: the size the repository's simulator uses (lib/sim). *)
let dummy_rows = 5_000

(* {1 Schemas} *)

let col = Schema.column

(* FOJ sources: R(a, b, c, e) joins S(c, d, f) on c. *)
let r_schema =
  Schema.make ~key:[ "a" ]
    [ col ~nullable:false "a" Value.TInt; col "b" Value.TText;
      col "c" Value.TInt; col "e" Value.TInt ]

let s_schema =
  Schema.make ~key:[ "c" ]
    [ col ~nullable:false "c" Value.TInt; col "d" Value.TText;
      col "f" Value.TInt ]

let dummy_schema =
  Schema.make ~key:[ "k" ] [ col ~nullable:false "k" Value.TInt; col "v" Value.TText ]

let foj_spec =
  { Spec.r_table = "R"; s_table = "S"; t_table = "T";
    join_r = [ "c" ]; join_s = [ "c" ]; t_join = [ "c" ];
    r_carry = [ "a"; "b"; "e" ]; s_carry = [ "d"; "f" ];
    many_to_many = false }

(* Split source: a customer table whose city is a function of its postal
   code, split into cust(id, name, balance, zip) and place(zip, city). *)
let customer_schema =
  Schema.make ~key:[ "id" ]
    [ col ~nullable:false "id" Value.TInt; col "name" Value.TText;
      col "balance" Value.TInt; col "zip" Value.TInt; col "city" Value.TText ]

let split_spec =
  { Spec.t_table' = "customer"; r_table' = "cust"; s_table' = "place";
    r_cols = [ "id"; "name"; "balance"; "zip" ];
    s_cols = [ "zip"; "city" ]; split_key = [ "zip" ];
    assume_consistent = true }

let spec w =
  match w.shape with Foj -> Spec.Foj foj_spec | Split -> Spec.Split split_spec

(* {1 Catalogue} *)

let base =
  { name = ""; shape = Foj; mix = Hot_reads; big = 0; small = 0; dummy = 0; zipf = None; k = 1;
    window = 64; warmup_windows = 40;
    options = { Options.default with Options.drop_sources = false };
    durable = false; ckpt_every = max_int; crash_after = max_int;
    quanta_budget = 0; episode_s = 1. }

(* [tiny] shrinks every workload to a few hundred rows for the
   determinism self-test; the shape, mix and knobs stay. *)
let all ~tiny =
  let sz n = if tiny then n / 20 else n in
  let budget w =
    (* Ten times the quanta the change needs with no traffic at all:
       population quanta plus a generous propagation allowance. *)
    let rows = w.big + w.small in
    let per_quantum =
      match w.options.Options.strategy with
      | Options.Hybrid { sweep_quantum } -> sweep_quantum
      | Options.Lazy -> 1
      | Options.Eager -> w.options.Options.scan_batch
    in
    { w with quanta_budget = 10 * ((rows / per_quantum) + 200) }
  in
  List.map budget
    [ { base with
        name = "foj-populate"; shape = Foj; mix = Paper { source_pct = 20; move_pct = 0 };
        big = sz 50_000; small = sz 20_000; dummy = sz dummy_rows; k = 400; episode_s = 7.2;
        options =
          { base.options with
            Options.sync = Options.Nonblocking_abort;
            propagate_batch = 2048 } };
      { base with
        name = "split-lazy-hot"; shape = Split; mix = Hot_reads; big = sz 50_000;
        small = sz 2_000;
        zipf = Some (Zipf.make ~n:(sz 50_000) ~theta:0.99);
        k = 64; episode_s = 5.4;
        options =
          { base.options with
            Options.sync = Options.Nonblocking_commit;
            strategy = Options.Hybrid { sweep_quantum = 16 } } };
      { base with
        name = "foj-durable-write"; shape = Foj; mix = Paper { source_pct = 80; move_pct = 25 };
        big = sz 12_000; small = sz 4_000; dummy = sz dummy_rows; k = 64; durable = true; episode_s = 4.5;
        ckpt_every = (if tiny then 10 else 300);
        crash_after = (if tiny then 1 else 10);
        options =
          { base.options with
            Options.sync = Options.Nonblocking_abort;
            scan_batch = 64 } } ]

let find ~tiny name = List.find_opt (fun w -> w.name = name) (all ~tiny)

(* {1 Seeded data} *)

let int_key k = [| Value.Int k |]

(* Rows of the FOJ join column range over [1, small * 11/10]: about one
   R row in eleven finds no S partner (R-null padding), and S rows no R
   row references stay unmatched (S-null padding). *)
let join_range w = w.small + (w.small / 10)

let r_row rng w a =
  Row.make
    [ Value.Int a;
      Value.Text (Printf.sprintf "r-%09d" (Random.State.bits rng));
      Value.Int (1 + Random.State.int rng (join_range w));
      Value.Int (Random.State.bits rng) ]

let city zip = Value.Text (Printf.sprintf "city-%05d" zip)

(* The initial rows of every source table, in load order. *)
let rows ~seed w =
  let rng = Random.State.make [| seed; 0x5eed |] in
  match w.shape with
  | Foj ->
    let r = List.init w.big (fun i -> r_row rng w (i + 1)) in
    let s =
      List.init w.small (fun i ->
          let c = i + 1 in
          Row.make
            [ Value.Int c; Value.Text (Printf.sprintf "s-%07d" c);
              Value.Int (Random.State.bits rng) ])
    in
    let d =
      List.init w.dummy (fun k ->
          Row.make [ Value.Int (k + 1); Value.Text (Printf.sprintf "d-%09d" (Random.State.bits rng)) ])
    in
    [ ("R", r_schema, r); ("S", s_schema, s); ("D", dummy_schema, d) ]
  | Split ->
    let c =
      List.init w.big (fun i ->
          let id = i + 1 in
          let zip = 1 + Random.State.int rng w.small in
          Row.make
            [ Value.Int id; Value.Text (Printf.sprintf "cust-%07d" id);
              Value.Int (Random.State.int rng 100_000); Value.Int zip;
              city zip ])
    in
    [ ("customer", customer_schema, c) ]

(* {1 Transaction streams}

   Client [c]'s stream is drawn from its own generator, seeded by
   (seed, c): the same seed yields the same streams on both twins and
   in every run, whatever the timing. *)

let client_rng ~seed c = Random.State.make [| seed; 0xc11e; c |]

let digest_op h = function
  | Read { table; key } -> Hashtbl.hash (h, 1, table, key)
  | Update { table; key; set } -> Hashtbl.hash (h, 2, table, key, set)

let plan ~snapshot ops =
  let ops = Array.of_list ops in
  { snapshot; ops; digest = Array.fold_left digest_op (Bool.to_int snapshot) ops }

let pick rng w n =
  match w.zipf with
  | Some z -> Zipf.sample z rng
  | None -> 1 + Random.State.int rng n

let text rng prefix = Value.Text (Printf.sprintf "%s-%09d" prefix (Random.State.bits rng))

let next w rng =
  match w.mix with
  | Paper { source_pct; move_pct } ->
    (* The sources' share as the repository's simulator splits it:
       R takes three updates in four, S the rest. *)
    let update () =
      if Random.State.int rng 100 >= source_pct then
        Update { table = "D"; key = 1 + Random.State.int rng w.dummy; set = [ (1, text rng "w") ] }
      else if Random.State.int rng 4 > 0 then
        let key = pick rng w w.big in
        if Random.State.int rng 100 < move_pct then
          Update
            { table = "R"; key;
              set = [ (2, Value.Int (1 + Random.State.int rng (join_range w))) ] }
        else Update { table = "R"; key; set = [ (1, text rng "u") ] }
      else Update { table = "S"; key = pick rng w w.small; set = [ (1, text rng "v") ] }
    in
    plan ~snapshot:false (List.init ops_per_txn (fun _ -> update ()))
  | Hot_reads ->
    (* Read-heavy over Zipf-hot customers; the read-then-update pattern
       on hot keys produces lock waits and upgrade deadlocks. *)
    let c () = pick rng w w.big in
    let roll = Random.State.int rng 100 in
    if roll < 50 then
      plan ~snapshot:false
        [ Read { table = "customer"; key = c () };
          Read { table = "customer"; key = c () } ]
    else if roll < 85 then
      plan ~snapshot:true
        [ Read { table = "customer"; key = c () };
          Read { table = "customer"; key = c () } ]
    else
      let k = c () in
      plan ~snapshot:false
        [ Read { table = "customer"; key = k };
          Update
            { table = "customer"; key = k;
              set = [ (2, Value.Int (Random.State.int rng 100_000)) ] } ]

(* {1 Oracle} *)

let foj_oracle =
  { Nbsc_relalg.Relalg.r_join = [ "c" ]; s_join = [ "c" ]; out_join = [ "c" ];
    r_cols = [ "a"; "b"; "e" ]; s_cols = [ "d"; "f" ]; out_key = [ "a" ] }

let split_oracle =
  { Nbsc_relalg.Relalg.r_cols' = [ "id"; "name"; "balance"; "zip" ];
    s_cols' = [ "zip"; "city" ]; r_key = [ "id" ]; s_key = [ "zip" ] }

(* The targets must equal the relational operator applied to the final
   sources. Returns a description of the first mismatch. *)
let check_oracle w db =
  let module R = Nbsc_relalg.Relalg in
  let same what expected actual =
    if R.equal_as_sets expected actual then Ok ()
    else begin
      let only_e, only_a = R.diff_as_sets expected actual in
      Error
        (Printf.sprintf "%s: %d rows only in the oracle, %d only in the target"
           what (List.length only_e) (List.length only_a))
    end
  in
  match w.shape with
  | Foj ->
    same "T = FOJ(R, S)"
      (R.full_outer_join foj_oracle (Db.snapshot db "R") (Db.snapshot db "S"))
      (Db.snapshot db "T")
  | Split ->
    let r, s = R.split split_oracle (Db.snapshot db "customer") in
    Result.bind (same "cust = split(customer)" r (Db.snapshot db "cust"))
      (fun () -> same "place = split(customer)" s (Db.snapshot db "place"))
