type t = {
  comp : int array;
  count : int;
  size : int array;
  self_loop : bool array;
  closed : bool array;
}

(* Iterative Tarjan over a flat table: the successors of [q] are
   [targets.(offsets.(q * stride)) .. targets.(offsets.((q + 1) * stride) - 1)],
   so a CSR table is read in place with [stride] its symbol count. The DFS
   path and the component stack are int arrays, each at most [states]
   deep. A state is on the component stack iff it has an index and no
   component yet. Components are numbered in completion order, which for
   Tarjan is reverse topological order: a component is completed only
   after every component it can reach. *)
let tarjan ~states ~stride offsets targets =
  let lo q = offsets.(q * stride) and hi q = offsets.((q + 1) * stride) in
  let index = Array.make states (-1) in
  let lowlink = Array.make states 0 in
  let comp = Array.make states (-1) in
  let stack = Array.make states 0 and sp = ref 0 in
  let path = Array.make states 0 and cursor = Array.make states 0 in
  let depth = ref 0 and next = ref 0 and count = ref 0 in
  let enter v =
    index.(v) <- !next;
    lowlink.(v) <- !next;
    incr next;
    stack.(!sp) <- v;
    incr sp;
    path.(!depth) <- v;
    cursor.(!depth) <- lo v;
    incr depth
  in
  for root = 0 to states - 1 do
    if index.(root) = -1 then begin
      enter root;
      while !depth > 0 do
        let d = !depth - 1 in
        let v = path.(d) and i = cursor.(d) in
        if i < hi v then begin
          let w = targets.(i) in
          cursor.(d) <- i + 1;
          if index.(w) = -1 then enter w
          else if comp.(w) = -1 && index.(w) < lowlink.(v) then
            lowlink.(v) <- index.(w)
        end
        else begin
          depth := d;
          if d > 0 then begin
            let parent = path.(d - 1) in
            if lowlink.(v) < lowlink.(parent) then lowlink.(parent) <- lowlink.(v)
          end;
          if lowlink.(v) = index.(v) then begin
            let id = !count in
            incr count;
            let continue = ref true in
            while !continue do
              decr sp;
              let w = stack.(!sp) in
              comp.(w) <- id;
              if w = v then continue := false
            done
          end
        end
      done
    end
  done;
  let count = !count in
  let size = Array.make count 0 in
  Array.iter (fun c -> size.(c) <- size.(c) + 1) comp;
  let self_loop = Array.make count false in
  let closed = Array.make count true in
  for q = 0 to states - 1 do
    let c = comp.(q) in
    for i = lo q to hi q - 1 do
      let q' = targets.(i) in
      if q = q' then self_loop.(c) <- true;
      if c <> comp.(q') then closed.(c) <- false
    done
  done;
  { comp; count; size; self_loop; closed }

(* the rows are copied into the flat form once *)
let of_succ ~states succ =
  let offsets = Array.make (states + 1) 0 and targets = Vec.create () in
  for q = 0 to states - 1 do
    succ q (Vec.push targets);
    offsets.(q + 1) <- Vec.length targets
  done;
  tarjan ~states ~stride:1 offsets (Vec.to_array targets)

let of_csr csr =
  tarjan ~states:(Csr.states csr) ~stride:(Csr.symbols csr) (Csr.offsets csr)
    (Csr.targets csr)

let nontrivial t c = t.size.(c) > 1 || t.self_loop.(c)

let members t c =
  let states = Array.length t.comp in
  List.filter (fun q -> t.comp.(q) = c) (List.init states Fun.id)
