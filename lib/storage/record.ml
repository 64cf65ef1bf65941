open Nbsc_value
open Nbsc_wal

type flag = Consistent | Unknown

type t = {
  row : Row.t;
  lsn : Lsn.t;
  txn : int;
  counter : int;
  flag : flag;
  aux : int;
}

let make ?(txn = 0) ?(counter = 1) ?(flag = Consistent) ?(aux = 0) ~lsn row =
  { row; lsn; txn; counter; flag; aux }

let with_row t row = { t with row }
let with_lsn t lsn = { t with lsn }
let with_txn t txn = { t with txn }
let with_counter t counter = { t with counter }
let with_flag t flag = { t with flag }

let pp ppf t =
  Format.fprintf ppf "%a lsn=%a cnt=%d %s" Row.pp t.row Lsn.pp t.lsn t.counter
    (match t.flag with Consistent -> "C" | Unknown -> "U")
