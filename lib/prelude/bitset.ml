type t = { cap : int; words : int array }

let bits_per_word = Sys.int_size

let create cap =
  if cap < 0 then invalid_arg "Bitset.create: negative capacity";
  { cap; words = Array.make ((cap + bits_per_word - 1) / bits_per_word) 0 }

let capacity s = s.cap
let copy s = { cap = s.cap; words = Array.copy s.words }
let unsafe_words s = s.words

let check s i =
  if i < 0 || i >= s.cap then invalid_arg "Bitset: element out of range"

let add s i =
  check s i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  s.words.(w) <- s.words.(w) lor (1 lsl b)

let remove s i =
  check s i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  s.words.(w) <- s.words.(w) land lnot (1 lsl b)

let mem s i =
  check s i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  s.words.(w) land (1 lsl b) <> 0

let is_empty s =
  let words = s.words in
  let rec loop w = w = Array.length words || (words.(w) = 0 && loop (w + 1)) in
  loop 0

let popcount n =
  let rec loop n acc = if n = 0 then acc else loop (n land (n - 1)) (acc + 1) in
  loop n 0

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words

let same_cap a b =
  if a.cap <> b.cap then invalid_arg "Bitset: capacity mismatch"

let union_into ~into src =
  same_cap into src;
  Array.iteri (fun i w -> into.words.(i) <- into.words.(i) lor w) src.words

let inter_into ~into src =
  same_cap into src;
  Array.iteri (fun i w -> into.words.(i) <- into.words.(i) land w) src.words

let diff_into ~into src =
  same_cap into src;
  Array.iteri (fun i w -> into.words.(i) <- into.words.(i) land lnot w) src.words

let equal a b =
  same_cap a b;
  Array.for_all2 ( = ) a.words b.words

let subset a b =
  same_cap a b;
  let n = Array.length a.words in
  let rec loop i =
    i >= n || (a.words.(i) land lnot b.words.(i) = 0 && loop (i + 1))
  in
  loop 0

let disjoint a b =
  same_cap a b;
  let n = Array.length a.words in
  let rec loop i = i >= n || (a.words.(i) land b.words.(i) = 0 && loop (i + 1)) in
  loop 0

(* [2^b mod 67] is distinct for every [b] below 66, because 2 generates
   the units modulo the prime 67: the residue of an isolated bit names
   its position. The top bit is the sign bit, isolated as [min_int]. *)
let positions =
  let t = Array.make 67 0 in
  for b = 0 to bits_per_word - 2 do
    t.((1 lsl b) mod 67) <- b
  done;
  t

let lowest_bit word =
  let bit = word land -word in
  if bit < 0 then bits_per_word - 1 else positions.(bit mod 67)

let iter f s =
  let words = s.words in
  for w = 0 to Array.length words - 1 do
    let word = ref words.(w) in
    while !word <> 0 do
      f ((w * bits_per_word) + lowest_bit !word);
      word := !word land (!word - 1)
    done
  done

let fold f s acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) s;
  !acc

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])

let of_list cap xs =
  let s = create cap in
  List.iter (add s) xs;
  s

let choose s =
  let words = s.words in
  let rec loop w =
    if w = Array.length words then raise Not_found
    else if words.(w) = 0 then loop (w + 1)
    else (w * bits_per_word) + lowest_bit words.(w)
  in
  loop 0

let hash s = Array.fold_left (fun acc w -> (acc * 31) + (w land max_int)) 17 s.words

let compare a b =
  same_cap a b;
  Stdlib.compare a.words b.words

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
       Format.pp_print_int)
    (elements s)
