type 'a entry = { key : int; seq : int; value : 'a }

type 'a t = { mutable a : 'a entry array; mutable n : int }

let create () = { a = [||]; n = 0 }

let is_empty t = t.n = 0

let length t = t.n

let less e1 e2 = e1.key < e2.key || (e1.key = e2.key && e1.seq < e2.seq)

let grow t e =
  let cap = Array.length t.a in
  if t.n = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let na = Array.make ncap e in
    Array.blit t.a 0 na 0 t.n;
    t.a <- na
  end

let push t ~key ~seq value =
  let e = { key; seq; value } in
  grow t e;
  t.a.(t.n) <- e;
  t.n <- t.n + 1;
  (* Sift up. *)
  let i = ref (t.n - 1) in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    less t.a.(!i) t.a.(p)
  do
    let p = (!i - 1) / 2 in
    let tmp = t.a.(p) in
    t.a.(p) <- t.a.(!i);
    t.a.(!i) <- tmp;
    i := p
  done

let sift_down t start =
  let i = ref start in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.n && less t.a.(l) t.a.(!smallest) then smallest := l;
    if r < t.n && less t.a.(r) t.a.(!smallest) then smallest := r;
    if !smallest = !i then continue := false
    else begin
      let tmp = t.a.(!smallest) in
      t.a.(!smallest) <- t.a.(!i);
      t.a.(!i) <- tmp;
      i := !smallest
    end
  done

let pop t =
  if t.n = 0 then None
  else begin
    let top = t.a.(0) in
    t.n <- t.n - 1;
    if t.n > 0 then begin
      t.a.(0) <- t.a.(t.n);
      sift_down t 0
    end;
    Some (top.key, top.seq, top.value)
  end

let peek_key t = if t.n = 0 then None else Some t.a.(0).key

let pop_le t ~max = if t.n = 0 || t.a.(0).key > max then None else pop t
