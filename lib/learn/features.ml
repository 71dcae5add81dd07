module T = Ovo_boolfun.Truthtable
module Json = Ovo_obs.Json

type t = {
  n : int;
  influence : float array;
  polarity : float array;
  spectral : float array;
  occurrence : float array;
  cosens : float array array;
}

(* Every semantic entry below is a count over all 2^n assignments
   divided by a power of two (or an exact mean of such), so extracting
   from a relabelled table performs the very same float operations in a
   different order of variables — equivariance holds with exact float
   equality, which the qcheck property relies on. *)

let of_truthtable tt =
  let n = T.arity tt in
  let size = 1 lsl n in
  let fsize = float_of_int size in
  (* [flips.(j)]: where flipping input [j] flips [f], one derivative
     per variable that every pairwise count below reuses *)
  let flips = Array.init n (fun j -> T.xor tt (T.flip tt j)) in
  let influence =
    Array.map (fun d -> float_of_int (T.count_ones d) /. fsize) flips
  in
  let vars = Array.init n (T.var n) in
  let ones = T.count_ones tt in
  let polarity =
    Array.init n (fun j ->
        (* |f_{j=1}| counts the ones of f with x_j set *)
        let ones1 = T.count_ones (T.( &&& ) tt vars.(j)) in
        float_of_int (ones1 - (ones - ones1)) /. float_of_int (size / 2))
  in
  let cosens = Array.make_matrix n n 0. in
  let walsh = Array.make_matrix n n 0. in
  for j = 0 to n - 1 do
    let f_xj = T.xor tt vars.(j) in
    for k = j + 1 to n - 1 do
      let both = T.count_ones (T.( &&& ) flips.(j) flips.(k)) in
      (* (-1)^(f + x_j + x_k) is +1 exactly where f xor x_j xor x_k is 0 *)
      let agree = size - T.count_ones (T.xor f_xj vars.(k)) in
      let c = float_of_int both /. fsize in
      cosens.(j).(k) <- c;
      cosens.(k).(j) <- c;
      let w = Float.abs (float_of_int ((2 * agree) - size) /. fsize) in
      walsh.(j).(k) <- w;
      walsh.(k).(j) <- w
    done
  done;
  let spectral =
    Array.init n (fun j ->
        if n <= 1 then 0.
        else
          Array.fold_left ( +. ) 0. walsh.(j) /. float_of_int (n - 1))
  in
  (* f depends on x_j exactly where some flip of x_j flips f *)
  let occurrence = Array.map (fun i -> if i > 0. then 1. else 0.) influence in
  { n; influence; polarity; spectral; occurrence; cosens }

let permute f perm =
  let n = f.n in
  let vec a = Array.init n (fun j -> a.(perm.(j))) in
  let mat m = Array.init n (fun j -> Array.init n (fun k -> m.(perm.(j)).(perm.(k)))) in
  {
    n;
    influence = vec f.influence;
    polarity = vec f.polarity;
    spectral = vec f.spectral;
    occurrence = vec f.occurrence;
    cosens = mat f.cosens;
  }

let equal a b =
  a.n = b.n
  && a.influence = b.influence
  && a.polarity = b.polarity
  && a.spectral = b.spectral
  && a.occurrence = b.occurrence
  && a.cosens = b.cosens

let json_vec a = Json.List (Array.to_list (Array.map (fun x -> Json.Float x) a))

let json_mat m = Json.List (Array.to_list (Array.map json_vec m))

let to_json f =
  Json.Obj
    [
      ("n", Json.Int f.n);
      ("influence", json_vec f.influence);
      ("polarity", json_vec f.polarity);
      ("spectral", json_vec f.spectral);
      ("occurrence", json_vec f.occurrence);
      ("cosens", json_mat f.cosens);
    ]

let vec_of_json ~len j =
  match j with
  | Json.List xs when List.length xs = len -> (
      let a = Array.make len 0. in
      try
        List.iteri
          (fun i x ->
            match Json.to_float_opt x with
            | Some v -> a.(i) <- v
            | None -> raise Exit)
          xs;
        Ok a
      with Exit -> Error "feature vector entry is not a number")
  | _ -> Error "feature vector has the wrong shape"

let mat_of_json ~len j =
  match j with
  | Json.List rows when List.length rows = len -> (
      let m = Array.make_matrix len len 0. in
      try
        List.iteri
          (fun i row ->
            match vec_of_json ~len row with
            | Ok a -> m.(i) <- a
            | Error _ -> raise Exit)
          rows;
        Ok m
      with Exit -> Error "feature matrix row is malformed")
  | _ -> Error "feature matrix has the wrong shape"

let ( let* ) = Result.bind

let of_json j =
  match Json.member "n" j with
  | Some (Json.Int n) when n >= 0 ->
      let field name = Option.to_result ~none:("missing feature field " ^ name) (Json.member name j) in
      let* influence = Result.bind (field "influence") (vec_of_json ~len:n) in
      let* polarity = Result.bind (field "polarity") (vec_of_json ~len:n) in
      let* spectral = Result.bind (field "spectral") (vec_of_json ~len:n) in
      let* occurrence = Result.bind (field "occurrence") (vec_of_json ~len:n) in
      let* cosens = Result.bind (field "cosens") (mat_of_json ~len:n) in
      Ok { n; influence; polarity; spectral; occurrence; cosens }
  | _ -> Error "features: missing or malformed n"

let pp ppf f =
  Format.fprintf ppf "@[<v>features n=%d@," f.n;
  for j = 0 to f.n - 1 do
    Format.fprintf ppf "  x%-3d inf=%.3f pol=%+.3f spec=%.3f occ=%.3f@," j
      f.influence.(j) f.polarity.(j) f.spectral.(j) f.occurrence.(j)
  done;
  Format.fprintf ppf "@]"
