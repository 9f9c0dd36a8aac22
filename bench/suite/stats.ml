(* Order statistics over samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Quantile [q] (0..1) by linear interpolation between closest ranks;
   nan for an empty sample. *)
let quantile q xs =
  let a = sorted xs in
  match Array.length a with
  | 0 -> nan
  | n ->
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* First and third quartile exactly as Python's
   [statistics.quantiles(xs, n=4)] computes them (its default
   "exclusive" method), which is how run-to-run spread is judged.
   Needs at least two samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then None
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    Some (cut 1, cut 3)

(* Interquartile distance as a share of the median; nan when undefined. *)
let spread xs =
  match quartiles xs with
  | Some (q1, q3) when median xs <> 0.0 -> (q3 -. q1) /. Float.abs (median xs)
  | _ -> nan

type summary = { p50 : float; p90 : float; n : int }

let summary xs = { p50 = median xs; p90 = quantile 0.9 xs; n = Array.length xs }
