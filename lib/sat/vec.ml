type t = { mutable data : int array; mutable sz : int }

let create () = { data = Array.make 16 0; sz = 0 }
let size v = v.sz
let is_empty v = v.sz = 0

let get v i =
  if i < 0 || i >= v.sz then invalid_arg "Vec.get";
  Array.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.sz then invalid_arg "Vec.set";
  Array.unsafe_set v.data i x

let push v x =
  if v.sz = Array.length v.data then begin
    let data = Array.make (2 * v.sz) 0 in
    Array.blit v.data 0 data 0 v.sz;
    v.data <- data
  end;
  Array.unsafe_set v.data v.sz x;
  v.sz <- v.sz + 1

let pop v =
  if v.sz = 0 then invalid_arg "Vec.pop";
  v.sz <- v.sz - 1;
  Array.unsafe_get v.data v.sz

let shrink v n =
  if n < 0 || n > v.sz then invalid_arg "Vec.shrink";
  v.sz <- n

let iter f v =
  for i = 0 to v.sz - 1 do
    f (Array.unsafe_get v.data i)
  done

let sort cmp v =
  let sub = Array.sub v.data 0 v.sz in
  Array.sort cmp sub;
  Array.blit sub 0 v.data 0 v.sz
