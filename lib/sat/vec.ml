type 'a t = { mutable data : 'a array; mutable sz : int; dummy : 'a }

let create ?(capacity = 16) ~dummy () =
  { data = Array.make (max capacity 1) dummy; sz = 0; dummy }

let make n x = { data = Array.make (max n 1) x; sz = n; dummy = x }
let size v = v.sz
let is_empty v = v.sz = 0

let get v i =
  if i < 0 || i >= v.sz then invalid_arg "Vec.get";
  Array.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.sz then invalid_arg "Vec.set";
  Array.unsafe_set v.data i x

let grow v =
  let n = Array.length v.data in
  let data = Array.make (2 * n) v.dummy in
  Array.blit v.data 0 data 0 v.sz;
  v.data <- data

let push v x =
  if v.sz = Array.length v.data then grow v;
  Array.unsafe_set v.data v.sz x;
  v.sz <- v.sz + 1

let pop v =
  if v.sz = 0 then invalid_arg "Vec.pop";
  v.sz <- v.sz - 1;
  let x = Array.unsafe_get v.data v.sz in
  Array.unsafe_set v.data v.sz v.dummy;
  x

let last v =
  if v.sz = 0 then invalid_arg "Vec.last";
  Array.unsafe_get v.data (v.sz - 1)

let clear v =
  Array.fill v.data 0 v.sz v.dummy;
  v.sz <- 0

let shrink v n =
  if n < 0 || n > v.sz then invalid_arg "Vec.shrink";
  Array.fill v.data n (v.sz - n) v.dummy;
  v.sz <- n

let iter f v =
  for i = 0 to v.sz - 1 do
    f (Array.unsafe_get v.data i)
  done

let iteri f v =
  for i = 0 to v.sz - 1 do
    f i (Array.unsafe_get v.data i)
  done

let exists p v =
  let rec loop i = i < v.sz && (p (Array.unsafe_get v.data i) || loop (i + 1)) in
  loop 0

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.sz - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let to_list v =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (v.data.(i) :: acc) in
  loop (v.sz - 1) []

let of_list ~dummy xs =
  let v = create ~dummy () in
  List.iter (push v) xs;
  v

let copy v = { data = Array.copy v.data; sz = v.sz; dummy = v.dummy }

let sort cmp v =
  let sub = Array.sub v.data 0 v.sz in
  Array.sort cmp sub;
  Array.blit sub 0 v.data 0 v.sz
