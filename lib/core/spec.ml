open Nbsc_value
open Nbsc_storage

type foj = {
  r_table : string;
  s_table : string;
  t_table : string;
  join_r : string list;
  join_s : string list;
  t_join : string list;
  r_carry : string list;
  s_carry : string list;
  many_to_many : bool;
}

let ix_by_r_key = "by_r_key"
let ix_by_s_key = "by_s_key"
let ix_by_join = "by_join"

type foj_layout = {
  spec : foj;
  t_schema : Schema.t;
  r_schema : Schema.t;
  s_schema : Schema.t;
  r_key_in_r : int list;
  s_key_in_s : int list;
  join_in_r : int list;
  join_in_s : int list;
  t_join_pos : int list;
  t_r_carry_pos : int list;
  t_s_carry_pos : int list;
  t_r_key_pos : int list;
  t_s_key_pos : int list;
  r_key_in_tkey : int list;
  s_key_in_tkey : int list;
  r_to_t : (int * int) list;
  s_to_t : (int * int) list;
  r_join_to_t : (int * int) list;
  s_join_to_t : (int * int) list;
}

let fail fmt = Format.kasprintf invalid_arg fmt

let check_distinct what names =
  let sorted = List.sort String.compare names in
  let rec go = function
    | a :: (b :: _ as rest) ->
      if String.equal a b then fail "Spec: duplicate %s %S" what a;
      go rest
    | _ -> ()
  in
  go sorted

let check_subset ~what ~of_ sub super =
  List.iter
    (fun n ->
       if not (List.mem n super) then fail "Spec: %s %S must be in %s" what n of_)
    sub

let column_of schema name =
  let i = Schema.position schema name in
  List.nth (Schema.columns schema) i

let foj_layout catalog spec =
  let r_tbl =
    match Catalog.find_opt catalog spec.r_table with
    | Some t -> t
    | None -> fail "Spec: source table %S not found" spec.r_table
  in
  let s_tbl =
    match Catalog.find_opt catalog spec.s_table with
    | Some t -> t
    | None -> fail "Spec: source table %S not found" spec.s_table
  in
  let r_schema = Table.schema r_tbl and s_schema = Table.schema s_tbl in
  if List.length spec.join_r <> List.length spec.join_s then
    fail "Spec: join column lists differ in length";
  if List.length spec.t_join <> List.length spec.join_r then
    fail "Spec: t_join must name each join column once";
  List.iter2
    (fun rn sn ->
       let rc = column_of r_schema rn and sc = column_of s_schema sn in
       if rc.Schema.col_ty <> sc.Schema.col_ty then
         fail "Spec: join columns %S and %S have different types" rn sn)
    spec.join_r spec.join_s;
  (* Preparation-step requirement (paper 3.1): T must include a
     candidate key of each source.  Key columns may be carried outright
     or be join columns (then they live in T under the t_join name). *)
  let r_key_names = Schema.key_names r_schema in
  let r_key_carried n = List.mem n spec.r_carry
  and r_key_joined n =
    List.exists2 (fun rj _ -> String.equal rj n) spec.join_r spec.t_join
  in
  List.iter
    (fun n ->
       if not (r_key_carried n || r_key_joined n) then
         fail "Spec: R key column %S must be carried or joined on" n)
    r_key_names;
  let s_key_names = Schema.key_names s_schema in
  let s_key_carried n = List.mem n spec.s_carry
  and s_key_joined n =
    List.exists2 (fun sj _ -> String.equal sj n) spec.join_s spec.t_join
  in
  List.iter
    (fun n ->
       if not (s_key_carried n || s_key_joined n) then
         fail "Spec: S key column %S must be carried or joined on" n)
    s_key_names;
  List.iter
    (fun n ->
       if List.mem n spec.r_carry then
         fail "Spec: join column %S must not also be in r_carry" n)
    spec.join_r;
  List.iter
    (fun n ->
       if List.mem n spec.s_carry then
         fail "Spec: join column %S must not also be in s_carry" n)
    spec.join_s;
  let t_names = spec.t_join @ spec.r_carry @ spec.s_carry in
  check_distinct "T column" t_names;
  (* Build T's schema: join columns first (typed from R), then carried
     columns.  Everything nullable: FOJ pads with NULLs. *)
  let t_columns =
    List.map2
      (fun tn rn ->
         let c = column_of r_schema rn in
         Schema.column tn c.Schema.col_ty)
      spec.t_join spec.join_r
    @ List.map
        (fun rn ->
           let c = column_of r_schema rn in
           Schema.column rn c.Schema.col_ty)
        spec.r_carry
    @ List.map
        (fun sn ->
           let c = column_of s_schema sn in
           Schema.column sn c.Schema.col_ty)
        spec.s_carry
  in
  (* Key columns as named in T: carried ones keep their name; joined
     ones are renamed to the matching t_join name.  The composite T key
     deduplicates shared columns (a column joined on from both sides
     appears once). *)
  let in_t_name joins carried n =
    if carried n then n
    else
      let rec find js ts =
        match js, ts with
        | j :: _, t :: _ when String.equal j n -> t
        | _ :: js, _ :: ts -> find js ts
        | _ -> assert false
      in
      find joins spec.t_join
  in
  let r_key_in_t_names =
    List.map (in_t_name spec.join_r r_key_carried) r_key_names
  in
  let s_key_in_t_names =
    List.map (in_t_name spec.join_s s_key_carried) s_key_names
  in
  let t_key =
    List.fold_left
      (fun acc n -> if List.mem n acc then acc else acc @ [ n ])
      [] (r_key_in_t_names @ s_key_in_t_names)
  in
  let t_schema = Schema.make ~key:t_key t_columns in
  let pos_t = Schema.positions t_schema in
  let t_join_pos = pos_t spec.t_join in
  let t_r_carry_pos = pos_t spec.r_carry in
  let t_s_carry_pos = pos_t spec.s_carry in
  { spec;
    t_schema;
    r_schema;
    s_schema;
    r_key_in_r = Schema.key_positions r_schema;
    s_key_in_s = Schema.key_positions s_schema;
    join_in_r = Schema.positions r_schema spec.join_r;
    join_in_s = Schema.positions s_schema spec.join_s;
    t_join_pos;
    t_r_carry_pos;
    t_s_carry_pos;
    t_r_key_pos = pos_t r_key_in_t_names;
    t_s_key_pos = pos_t s_key_in_t_names;
    r_key_in_tkey =
      List.map
        (fun n ->
           let rec idx i = function
             | [] -> assert false
             | x :: rest -> if String.equal x n then i else idx (i + 1) rest
           in
           idx 0 t_key)
        r_key_in_t_names;
    s_key_in_tkey =
      List.map
        (fun n ->
           let rec idx i = function
             | [] -> assert false
             | x :: rest -> if String.equal x n then i else idx (i + 1) rest
           in
           idx 0 t_key)
        s_key_in_t_names;
    r_to_t =
      List.combine (Schema.positions r_schema spec.r_carry) t_r_carry_pos;
    s_to_t =
      List.combine (Schema.positions s_schema spec.s_carry) t_s_carry_pos;
    r_join_to_t =
      List.combine (Schema.positions r_schema spec.join_r) t_join_pos;
    s_join_to_t =
      List.combine (Schema.positions s_schema spec.join_s) t_join_pos }

let foj_t_schema l = l.t_schema

let foj_t_indexes l =
  let names positions =
    List.map (fun i -> Schema.name_at l.t_schema i) positions
  in
  [ (ix_by_r_key, names l.t_r_key_pos);
    (ix_by_s_key, names l.t_s_key_pos);
    (ix_by_join, names l.t_join_pos) ]

type split = {
  t_table' : string;
  r_table' : string;
  s_table' : string;
  r_cols : string list;
  s_cols : string list;
  split_key : string list;
  assume_consistent : bool;
}

let ix_t_split = "by_split"

type split_layout = {
  sspec : split;
  t_schema' : Schema.t;
  r_schema' : Schema.t;
  s_schema' : Schema.t;
  t_key_in_t : int list;
  split_in_t : int list;
  r_cols_in_t : int list;
  s_cols_in_t : int list;
  split_in_r : int list;
  split_in_s : int list;
  t_to_r : (int * int) list;
  t_to_s : (int * int) list;
}

let split_layout catalog sspec =
  let t_tbl =
    match Catalog.find_opt catalog sspec.t_table' with
    | Some t -> t
    | None -> fail "Spec: source table %S not found" sspec.t_table'
  in
  let t_schema' = Table.schema t_tbl in
  check_distinct "R column" sspec.r_cols;
  check_distinct "S column" sspec.s_cols;
  List.iter
    (fun n ->
       if not (Schema.mem t_schema' n) then
         fail "Spec: column %S not in table %S" n sspec.t_table')
    (sspec.r_cols @ sspec.s_cols);
  check_subset ~what:"T key column" ~of_:"r_cols" (Schema.key_names t_schema')
    sspec.r_cols;
  check_subset ~what:"split column" ~of_:"r_cols" sspec.split_key sspec.r_cols;
  check_subset ~what:"split column" ~of_:"s_cols" sspec.split_key sspec.s_cols;
  let sub cols ~key =
    Schema.make ~key
      (List.map (fun n -> column_of t_schema' n) cols)
  in
  let r_schema' = sub sspec.r_cols ~key:(Schema.key_names t_schema') in
  let s_schema' = sub sspec.s_cols ~key:sspec.split_key in
  let pos_t = Schema.positions t_schema' in
  let r_cols_in_t = pos_t sspec.r_cols and s_cols_in_t = pos_t sspec.s_cols in
  { sspec;
    t_schema';
    r_schema';
    s_schema';
    t_key_in_t = Schema.key_positions t_schema';
    split_in_t = pos_t sspec.split_key;
    r_cols_in_t;
    s_cols_in_t;
    split_in_r = Schema.positions r_schema' sspec.split_key;
    split_in_s = Schema.positions s_schema' sspec.split_key;
    t_to_r = List.combine r_cols_in_t (List.init (List.length sspec.r_cols) Fun.id);
    t_to_s = List.combine s_cols_in_t (List.init (List.length sspec.s_cols) Fun.id) }

let split_r_schema l = l.r_schema'
let split_s_schema l = l.s_schema'

type hsplit = {
  h_source : string;
  h_true_table : string;
  h_false_table : string;
  h_pred : Pred.t;
}

type hsplit_layout = {
  hspec : hsplit;
  h_schema : Schema.t;
  h_route : Row.t -> bool;
}

let hsplit_layout catalog hspec =
  let src =
    match Catalog.find_opt catalog hspec.h_source with
    | Some t -> t
    | None -> fail "Spec: source table %S not found" hspec.h_source
  in
  let h_schema = Table.schema src in
  List.iter
    (fun c ->
       if not (Schema.mem h_schema c) then
         fail "Spec: predicate column %S not in %S" c hspec.h_source)
    (Pred.columns hspec.h_pred);
  if String.equal hspec.h_true_table hspec.h_false_table then
    fail "Spec: horizontal split targets must differ";
  { hspec; h_schema; h_route = Pred.compile h_schema hspec.h_pred }

type merge = {
  m_sources : string list;
  m_target : string;
}

type merge_layout = {
  mspec : merge;
  m_schema : Schema.t;
}

type any =
  | Foj of foj
  | Split of split
  | Hsplit of hsplit
  | Merge of merge

let enc = Codec.encode_string_list
let dec = Codec.decode_string_list
let enc_bool b = if b then "1" else "0"

let dec_bool = function
  | "1" -> true
  | "0" -> false
  | s -> failwith ("Spec.decode: bad boolean " ^ s)

let encode = function
  | Foj f ->
    enc
      [ "foj"; f.r_table; f.s_table; f.t_table; enc f.join_r; enc f.join_s;
        enc f.t_join; enc f.r_carry; enc f.s_carry; enc_bool f.many_to_many ]
  | Split s ->
    enc
      [ "split"; s.t_table'; s.r_table'; s.s_table'; enc s.r_cols;
        enc s.s_cols; enc s.split_key; enc_bool s.assume_consistent ]
  | Hsplit h ->
    enc
      [ "hsplit"; h.h_source; h.h_true_table; h.h_false_table;
        Pred.encode h.h_pred ]
  | Merge m -> enc [ "merge"; enc m.m_sources; m.m_target ]

let decode s =
  match dec s with
  | [ "foj"; r_table; s_table; t_table; join_r; join_s; t_join; r_carry;
      s_carry; many_to_many ] ->
    Foj
      { r_table; s_table; t_table; join_r = dec join_r; join_s = dec join_s;
        t_join = dec t_join; r_carry = dec r_carry; s_carry = dec s_carry;
        many_to_many = dec_bool many_to_many }
  | [ "split"; t_table'; r_table'; s_table'; r_cols; s_cols; split_key;
      assume_consistent ] ->
    Split
      { t_table'; r_table'; s_table'; r_cols = dec r_cols;
        s_cols = dec s_cols; split_key = dec split_key;
        assume_consistent = dec_bool assume_consistent }
  | [ "hsplit"; h_source; h_true_table; h_false_table; pred ] ->
    Hsplit { h_source; h_true_table; h_false_table; h_pred = Pred.decode pred }
  | [ "merge"; m_sources; m_target ] ->
    Merge { m_sources = dec m_sources; m_target }
  | _ -> failwith "Spec.decode: malformed specification"

let targets = function
  | Foj s -> [ s.t_table ]
  | Split s -> [ s.r_table'; s.s_table' ]
  | Hsplit s -> [ s.h_true_table; s.h_false_table ]
  | Merge s -> [ s.m_target ]

let merge_layout catalog mspec =
  (match mspec.m_sources with
   | [] | [ _ ] -> fail "Spec: merge needs at least two sources"
   | _ -> ());
  check_distinct "merge source" mspec.m_sources;
  let schemas =
    List.map
      (fun name ->
         match Catalog.find_opt catalog name with
         | Some t -> Table.schema t
         | None -> fail "Spec: source table %S not found" name)
      mspec.m_sources
  in
  match schemas with
  | [] -> assert false
  | first :: rest ->
    List.iteri
      (fun i s ->
         if not (Schema.equal first s) then
           fail "Spec: merge source %S has a different schema"
             (List.nth mspec.m_sources (i + 1)))
      rest;
    { mspec; m_schema = first }
