type t = Dyadic.t array array

let make rows cols f =
  if rows <= 0 || cols <= 0 then invalid_arg "Dmatrix.make: empty matrix";
  Array.init rows (fun r -> Array.init cols (fun c -> f r c))

let of_rows entries =
  match entries with
  | [] -> invalid_arg "Dmatrix.of_rows: empty matrix"
  | first :: _ ->
      let cols = List.length first in
      if cols = 0 || List.exists (fun row -> List.length row <> cols) entries then
        invalid_arg "Dmatrix.of_rows: ragged or empty rows";
      Array.of_list (List.map Array.of_list entries)

let identity n = make n n (fun r c -> if r = c then Dyadic.one else Dyadic.zero)

let permutation_matrix p =
  let n = Array.length p in
  let seen = Array.make n false in
  Array.iter
    (fun x ->
      if x < 0 || x >= n || seen.(x) then
        invalid_arg "Dmatrix.permutation_matrix: not a permutation";
      seen.(x) <- true)
    p;
  make n n (fun r c -> if p.(c) = r then Dyadic.one else Dyadic.zero)

let zero rows cols = make rows cols (fun _ _ -> Dyadic.zero)
let rows m = Array.length m
let cols m = Array.length m.(0)
let get m r c = m.(r).(c)

let map2 name f a b =
  if rows a <> rows b || cols a <> cols b then
    invalid_arg (name ^ ": dimension mismatch");
  make (rows a) (cols a) (fun r c -> f a.(r).(c) b.(r).(c))

let add a b = map2 "Dmatrix.add" Dyadic.add a b
let sub a b = map2 "Dmatrix.sub" Dyadic.sub a b

let mul a b =
  if cols a <> rows b then invalid_arg "Dmatrix.mul: dimension mismatch";
  let inner = cols a in
  (* Gate matrices are sparse; a zero term adds exactly nothing to a
     normalized sum, so skipping it leaves every entry unchanged. *)
  make (rows a) (cols b) (fun r c ->
      let acc = ref Dyadic.zero in
      for k = 0 to inner - 1 do
        let x = a.(r).(k) in
        if not (Dyadic.is_zero x) then acc := Dyadic.add !acc (Dyadic.mul x b.(k).(c))
      done;
      !acc)

let scale k m = make (rows m) (cols m) (fun r c -> Dyadic.mul k m.(r).(c))

let kron a b =
  let rb = rows b and cb = cols b in
  make (rows a * rb) (cols a * cb) (fun r c ->
      Dyadic.mul a.(r / rb).(c / cb) b.(r mod rb).(c mod cb))

let adjoint m = make (cols m) (rows m) (fun r c -> Dyadic.conj m.(c).(r))

let apply m v =
  if cols m <> Array.length v then invalid_arg "Dmatrix.apply: dimension mismatch";
  Array.init (rows m) (fun r ->
      let acc = ref Dyadic.zero in
      for c = 0 to cols m - 1 do
        acc := Dyadic.add !acc (Dyadic.mul m.(r).(c) v.(c))
      done;
      !acc)

let equal a b =
  rows a = rows b && cols a = cols b
  && Array.for_all2 (fun ra rb -> Array.for_all2 Dyadic.equal ra rb) a b

let is_identity m = rows m = cols m && equal m (identity (rows m))
let is_unitary m = rows m = cols m && is_identity (mul m (adjoint m))

let is_permutation m =
  if rows m <> cols m then None
  else
    let n = rows m in
    let p = Array.make n (-1) in
    let ok = ref true in
    for c = 0 to n - 1 do
      for r = 0 to n - 1 do
        let x = m.(r).(c) in
        if Dyadic.equal x Dyadic.one then
          if p.(c) = -1 then p.(c) <- r else ok := false
        else if not (Dyadic.is_zero x) then ok := false
      done;
      if p.(c) = -1 then ok := false
    done;
    (* Columns each carry exactly one 1; injectivity follows from the total
       count of ones being n with no repeats. *)
    let seen = Array.make n false in
    Array.iter (fun r -> if r >= 0 then if seen.(r) then ok := false else seen.(r) <- true) p;
    if !ok then Some p else None

let rank m =
  let rows_n = rows m and cols_n = cols m in
  let work = Array.map Array.copy m in
  let rank = ref 0 and row = ref 0 in
  let col = ref 0 in
  while !row < rows_n && !col < cols_n do
    (* find a pivot in this column at or below [row] *)
    let pivot = ref (-1) in
    for r = !row to rows_n - 1 do
      if !pivot < 0 && not (Dyadic.is_zero work.(r).(!col)) then pivot := r
    done;
    if !pivot < 0 then incr col
    else begin
      if !pivot <> !row then begin
        let tmp = work.(!pivot) in
        work.(!pivot) <- work.(!row);
        work.(!row) <- tmp
      end;
      let p = work.(!row).(!col) in
      for r = !row + 1 to rows_n - 1 do
        let factor = work.(r).(!col) in
        if not (Dyadic.is_zero factor) then
          for k = !col to cols_n - 1 do
            (* cross-multiplication keeps everything in the ring *)
            work.(r).(k) <-
              Dyadic.sub (Dyadic.mul p work.(r).(k)) (Dyadic.mul factor work.(!row).(k))
          done
      done;
      incr rank;
      incr row;
      incr col
    end
  done;
  !rank

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun r row ->
      if r > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "[";
      Array.iteri
        (fun c x ->
          if c > 0 then Format.fprintf ppf " ";
          Dyadic.pp ppf x)
        row;
      Format.fprintf ppf "]")
    m;
  Format.fprintf ppf "@]"
