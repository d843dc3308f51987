type key = int * int * int

type entry = { key : key; elt : int; stamp : int }

type t = {
  mutable heap : entry array;
  mutable len : int;
  stamps : int array;      (* current stamp per element; -1 = not live *)
  mutable live : int;
}

let dummy_entry = { key = (0, 0, 0); elt = -1; stamp = -1 }

let create ~capacity =
  { heap = Array.make 64 dummy_entry;
    len = 0;
    stamps = Array.make (max capacity 1) (-1);
    live = 0 }

let key_lt (a : key) (b : key) = compare a b < 0

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if key_lt t.heap.(i).key t.heap.(parent).key then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && key_lt t.heap.(l).key t.heap.(!smallest).key then smallest := l;
  if r < t.len && key_lt t.heap.(r).key t.heap.(!smallest).key then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t =
  let heap = Array.make (2 * Array.length t.heap) dummy_entry in
  Array.blit t.heap 0 heap 0 t.len;
  t.heap <- heap

let insert t key elt =
  if elt < 0 || elt >= Array.length t.stamps then
    invalid_arg "Lazy_heap.insert: element out of range";
  let was_live = t.stamps.(elt) >= 0 in
  let stamp = abs t.stamps.(elt) + 1 in
  t.stamps.(elt) <- stamp;
  if not was_live then t.live <- t.live + 1;
  if t.len = Array.length t.heap then grow t;
  t.heap.(t.len) <- { key; elt; stamp };
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let remove t elt =
  if elt >= 0 && elt < Array.length t.stamps && t.stamps.(elt) >= 0 then begin
    t.stamps.(elt) <- - t.stamps.(elt);
    t.live <- t.live - 1
  end

let stale t entry = t.stamps.(entry.elt) <> entry.stamp

let rec drop_stale t =
  if t.len > 0 && stale t t.heap.(0) then begin
    t.len <- t.len - 1;
    t.heap.(0) <- t.heap.(t.len);
    t.heap.(t.len) <- dummy_entry;
    sift_down t 0;
    drop_stale t
  end

let pop_min t =
  drop_stale t;
  if t.len = 0 then None
  else begin
    let top = t.heap.(0) in
    t.len <- t.len - 1;
    t.heap.(0) <- t.heap.(t.len);
    t.heap.(t.len) <- dummy_entry;
    if t.len > 0 then sift_down t 0;
    t.stamps.(top.elt) <- - top.stamp;
    t.live <- t.live - 1;
    Some (top.key, top.elt)
  end

let is_empty t = t.live = 0

let live_count t = t.live
