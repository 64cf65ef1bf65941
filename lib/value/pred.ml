type op = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | True
  | False
  | Cmp of string * op * Value.t
  | Is_null of string
  | And of t * t
  | Or of t * t
  | Not of t

let cmp_holds op c =
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let rec compile schema = function
  | True -> fun _ -> true
  | False -> fun _ -> false
  | Cmp (col, op, v) ->
    let i = Schema.position schema col in
    fun row ->
      let x = Row.get row i in
      (* NULL never compares (SQL semantics collapsed to false). *)
      (not (Value.is_null x))
      && (not (Value.is_null v))
      && cmp_holds op (Value.compare x v)
  | Is_null col ->
    let i = Schema.position schema col in
    fun row -> Value.is_null (Row.get row i)
  | And (a, b) ->
    let fa = compile schema a and fb = compile schema b in
    fun row -> fa row && fb row
  | Or (a, b) ->
    let fa = compile schema a and fb = compile schema b in
    fun row -> fa row || fb row
  | Not a ->
    let fa = compile schema a in
    fun row -> not (fa row)

let eval schema t row = compile schema t row

let columns t =
  let rec go acc = function
    | True | False -> acc
    | Cmp (c, _, _) | Is_null c -> c :: acc
    | And (a, b) | Or (a, b) -> go (go acc a) b
    | Not a -> go acc a
  in
  List.sort_uniq String.compare (go [] t)

let op_tag = function
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"

let op_of_tag = function
  | "eq" -> Eq | "ne" -> Ne | "lt" -> Lt | "le" -> Le | "gt" -> Gt | "ge" -> Ge
  | s -> failwith ("Pred.decode: unknown operator " ^ s)

let rec encode t =
  Codec.encode_string_list
    (match t with
     | True -> [ "t" ]
     | False -> [ "f" ]
     | Cmp (c, op, v) -> [ "cmp"; c; op_tag op; Value.encode v ]
     | Is_null c -> [ "null"; c ]
     | And (a, b) -> [ "and"; encode a; encode b ]
     | Or (a, b) -> [ "or"; encode a; encode b ]
     | Not a -> [ "not"; encode a ])

let rec decode s =
  match Codec.decode_string_list s with
  | [ "t" ] -> True
  | [ "f" ] -> False
  | [ "cmp"; c; op; v ] -> Cmp (c, op_of_tag op, Value.decode v)
  | [ "null"; c ] -> Is_null c
  | [ "and"; a; b ] -> And (decode a, decode b)
  | [ "or"; a; b ] -> Or (decode a, decode b)
  | [ "not"; a ] -> Not (decode a)
  | _ -> failwith "Pred.decode: malformed predicate"

let pp_op ppf op =
  Format.pp_print_string ppf
    (match op with Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=")

let rec pp ppf = function
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Cmp (c, op, v) -> Format.fprintf ppf "%s %a %a" c pp_op op Value.pp v
  | Is_null c -> Format.fprintf ppf "%s IS NULL" c
  | And (a, b) -> Format.fprintf ppf "(%a AND %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a OR %a)" pp a pp b
  | Not a -> Format.fprintf ppf "NOT %a" pp a
