(* Hash table + intrusive doubly-linked recency list; head = most
   recently used, tail = eviction victim. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;
  mutable tail : ('k, 'v) node option;
  mutable capacity : int;
  mutable evicted : int;
}

let create ~capacity () =
  { table = Hashtbl.create 64; head = None; tail = None; capacity; evicted = 0 }

let length t = Hashtbl.length t.table
let capacity t = t.capacity
let evictions t = t.evicted

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  match t.head with
  | Some h when h == n -> ()
  | _ ->
      unlink t n;
      push_front t n

let find t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some n ->
      touch t n;
      Some n.value

let evict_one t =
  match t.tail with
  | None -> ()
  | Some n ->
      unlink t n;
      Hashtbl.remove t.table n.key;
      t.evicted <- t.evicted + 1

let trim t =
  if t.capacity > 0 then
    while Hashtbl.length t.table > t.capacity do
      evict_one t
    done

let put t k v =
  (match Hashtbl.find_opt t.table k with
  | Some n ->
      n.value <- v;
      touch t n
  | None ->
      let n = { key = k; value = v; prev = None; next = None } in
      Hashtbl.replace t.table k n;
      push_front t n);
  trim t

let set_capacity t n =
  t.capacity <- n;
  trim t

let clear t =
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  t.evicted <- 0

let keys t =
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go (n.key :: acc) n.next
  in
  go [] t.head
