(* QUDA-style run-time kernel autotuner (Sec. IV):

   "a brute-force search through launch parameter space is performed
    the first time an un-tuned kernel or algorithm is encountered.
    Once the optimum launch configuration is known, this is stored in
    a std::map, and is subsequently looked up on demand."

   This is exactly that, for OCaml kernels: candidates are measured
   once per (kernel, signature) key, the winner is cached with its
   performance metadata, and data-destructive kernels get a
   backup/restore hook around each trial. The cache can be saved to
   and restored from disk, like QUDA's tunecache. *)

type entry = {
  kernel : string;
  signature : string;  (* problem shape: volume, precision, ... *)
  winner : string;  (* label of the chosen launch configuration *)
  time_s : float;  (* measured time of the winner *)
  candidates_tried : int;
  tuned_at : float;  (* wall-clock, metadata only *)
}

type t = {
  cache : (string * string, entry) Hashtbl.t;
  mutable tune_count : int;  (* brute-force searches performed *)
  mutable hit_count : int;  (* cache lookups that avoided a search *)
  repeats : int;  (* timing repetitions per candidate *)
}

let create ?(repeats = 3) () = { cache = Hashtbl.create 64; tune_count = 0; hit_count = 0; repeats }

type 'a candidate = { label : string; run : 'a }

let candidate label run = { label; run }

(* The repeat timings of one candidate. *)
let time_candidate t ~backup ~restore (c : (unit -> unit) candidate) =
  Array.init t.repeats (fun _ ->
      backup ();
      let t0 = Unix.gettimeofday () in
      c.run ();
      let dt = Unix.gettimeofday () -. t0 in
      restore ();
      dt)

let median samples =
  let s = Array.copy samples in
  Array.sort compare s;
  s.(Array.length s / 2)

(* The winner, as a pure function of the timings. The first candidate
   is the baseline (every Variants space lists it first): it keeps the
   win unless the fastest challenger's median beats its median by more
   than the baseline's own repeat spread (max - min of its samples). A
   gap inside the baseline's noise is no evidence, so without the
   margin the winner would follow the noise. *)
let choose = function
  | [] -> invalid_arg "Tuner.choose: no candidates"
  | (base, samples) :: challengers ->
    let base_t = median samples in
    let spread =
      Array.fold_left Float.max neg_infinity samples
      -. Array.fold_left Float.min infinity samples
    in
    let fastest (bl, bt) (l, s) =
      let m = median s in
      if m < bt then (l, m) else (bl, bt)
    in
    let best, best_t = List.fold_left fastest (base, base_t) challengers in
    if base_t -. best_t > spread then (best, best_t) else (base, base_t)

let default_hook () = ()

(* [tune t ~kernel ~signature candidates] returns the label of the best
   candidate, measuring on first encounter and hitting the cache after.
   [backup]/[restore] bracket each trial for data-destructive kernels.
   A cached winner is only served if its label still names a live
   candidate: a cache loaded from disk (or kept across a variant-space
   change) may hold a winner the space no longer contains — serving it
   would hand the caller a label List.assoc cannot resolve. Such stale
   entries are re-tuned and overwritten, not trusted. *)
let tune ?(backup = default_hook) ?(restore = default_hook) t ~kernel ~signature
    (candidates : (unit -> unit) candidate list) =
  if candidates = [] then invalid_arg "Tuner.tune: no candidates";
  let key = (kernel, signature) in
  match Hashtbl.find_opt t.cache key with
  | Some e when List.exists (fun c -> c.label = e.winner) candidates ->
    t.hit_count <- t.hit_count + 1;
    e.winner
  | Some _ | None ->
    t.tune_count <- t.tune_count + 1;
    let timed =
      List.map (fun c -> (c.label, time_candidate t ~backup ~restore c)) candidates
    in
    let winner, time_s = choose timed in
    Hashtbl.replace t.cache key
      {
        kernel;
        signature;
        winner;
        time_s;
        candidates_tried = List.length candidates;
        tuned_at = Unix.gettimeofday ();
      };
    winner

let lookup t ~kernel ~signature = Hashtbl.find_opt t.cache (kernel, signature)
let entries t = Hashtbl.fold (fun _ e acc -> e :: acc) t.cache []
let tune_count t = t.tune_count
let hit_count t = t.hit_count

(* ---- persistence (QUDA's tunecache file) ---- *)

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Hashtbl.iter
        (fun _ e ->
          Printf.fprintf oc "%s\t%s\t%s\t%.9e\t%d\t%.3f\n" e.kernel e.signature
            e.winner e.time_s e.candidates_tried e.tuned_at)
        t.cache)

type load_error = { path : string; line : int; reason : string }

let load_error_to_string e = Printf.sprintf "%s:%d: %s" e.path e.line e.reason

(* Parse the whole file before touching the cache: a malformed line —
   wrong field count or a non-numeric number — is a typed error naming
   the file, the line and the reason, and leaves the cache as it was
   (no half-loaded tunecache). *)
let load t path =
  let ic = open_in path in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> In_channel.input_all ic)
    |> String.split_on_char '\n'
  in
  let parse lineno line =
    let number what conv s =
      Option.to_result ~none:(Printf.sprintf "%s %S is not a number" what s) (conv s)
    in
    let ( let* ) = Result.bind in
    Result.map_error
      (fun reason -> { path; line = lineno; reason })
      (match String.split_on_char '\t' line with
      | [ kernel; signature; winner; time_s; tried; tuned_at ] ->
        let* time_s = number "time_s" float_of_string_opt time_s in
        let* candidates_tried = number "candidates_tried" int_of_string_opt tried in
        let* tuned_at = number "tuned_at" float_of_string_opt tuned_at in
        Ok { kernel; signature; winner; time_s; candidates_tried; tuned_at }
      | fields ->
        Error
          (Printf.sprintf "expected 6 tab-separated fields, found %d"
             (List.length fields)))
  in
  let rec go lineno acc = function
    | [] | [ "" ] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse lineno line with
      | Ok e -> go (lineno + 1) (e :: acc) rest
      | Error e -> Error e)
  in
  Result.map
    (List.iter (fun e -> Hashtbl.replace t.cache (e.kernel, e.signature) e))
    (go 1 [] lines)
