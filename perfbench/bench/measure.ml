(* Clocks, step timing, failure accounting and the result line.

   Every workload runs the same pipeline several times on identical
   inputs (a "pass"). A pass is a fixed sequence of named steps, and
   each step is timed on its own. This host shares its cores with other
   tenants: the same work runs up to ~2x slower while a neighbour is
   busy, for stretches from a few hundred ms to minutes, each core on
   its own schedule, and interference only ever adds time. So passes
   (and set-ups) take turns on the cores the process may use, and the
   end-to-end wall time is the sum over the pipeline's steps of each
   step's fastest repetition — the pipeline's time on a quiet core. A
   median of whole passes moves with the neighbours' load from run to
   run. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ---- steps and passes ---- *)

type pass = { steps : (string * float) list; digest : string }
(** Step durations in execution order, plus a digest of the pass's
    physics outputs (every pass must reproduce the first bit for bit). *)

(* Records the steps of one pass in order. *)
type recorder = { mutable rev : (string * float) list }

let recorder () = { rev = [] }

let step r name f =
  let v, dt = time f in
  r.rev <- (name, dt) :: r.rev;
  v

let steps r = List.rev r.rev

(* How a pipeline wraps its calls: [stage] around a group of calls,
   [step] around one call into a layer (named "<layer>.<what>"). An
   untraced pass times each step ([timed]); the traced run records
   both as spans ([Spans.wrap]). One pipeline function serves both, so
   the traced run drives the same calls as the timed passes. *)
type wrap = {
  stage : 'a. string -> (unit -> 'a) -> 'a;
  step : 'a. string -> (unit -> 'a) -> 'a;
}

let timed r = { stage = (fun _ f -> f ()); step = (fun name f -> step r name f) }

external allowed_cores : unit -> int array = "perfbench_allowed_cores"
external pin_core : int -> int = "perfbench_pin_core"

let cores = lazy (allowed_cores ())

(* Run [f] pinned to the [i]-th allowed core, round robin. *)
let on_core i f =
  let cs = Lazy.force cores in
  if Array.length cs > 1 then ignore (pin_core cs.(i mod Array.length cs));
  f ()

(* Peak resident set (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line ->
      if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
      else scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Peak resident set through set-up and the first pass. Later passes
   repeat the same work, but the major heap they leave behind grows
   with their number, which the time box makes vary. *)
let first_pass_rss_mb = ref nan

(* Run [pass] until the next pass would end after [seconds] (measured
   from the first pass start), at least [min_passes] and at most
   [max_passes] times, pass [n] on core [n] (round robin). [before n]
   runs ahead of pass [n], outside its timing. *)
let run_passes ?(min_passes = 2) ?(max_passes = 64) ?(before = ignore) ~seconds pass =
  let t0 = now () in
  let rec loop acc n =
    before n;
    let p = on_core n pass in
    if n = 0 then first_pass_rss_mb := peak_rss_mb ();
    let acc = p :: acc and n = n + 1 in
    let elapsed = now () -. t0 in
    let per_pass = elapsed /. float_of_int n in
    if n >= max_passes || (n >= min_passes && elapsed +. per_pass > seconds) then
      List.rev acc
    else loop acc n
  in
  loop [] 0

(* Sum over steps of each step's fastest repetition. All passes must
   have the same step sequence. *)
let quiet_sum (passes : pass list) =
  match passes with
  | [] -> invalid_arg "Measure.quiet_sum: no passes"
  | first :: _ ->
    let names = List.map fst first.steps in
    List.iter
      (fun p ->
        if List.map fst p.steps <> names then
          failwith "Measure.quiet_sum: passes ran different step sequences")
      passes;
    let columns = List.map (fun p -> Array.of_list (List.map snd p.steps)) passes in
    let best = Array.copy (List.hd columns) in
    List.iter (Array.iteri (fun i t -> if t < best.(i) then best.(i) <- t)) columns;
    Array.fold_left ( +. ) 0. best

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* ---- failure accounting ---- *)

let attempted = ref 0
let failed = ref 0

(* Count one checked operation; a failure is reported on stderr. *)
let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      incr attempted;
      if not ok then begin
        incr failed;
        Printf.eprintf "FAILED: %s\n%!" msg
      end)
    fmt

let all_finite a = Array.for_all Float.is_finite a

(* Bit-for-bit digest of float data. *)
let digest_floats (arrays : float array list) =
  Digest.to_hex (Digest.string (Marshal.to_string arrays [ Marshal.No_sharing ]))

let digest_field (f : Linalg.Field.t) =
  let b = Buffer.create (Linalg.Field.length f * 8) in
  for i = 0 to Linalg.Field.length f - 1 do
    Buffer.add_int64_le b (Int64.bits_of_float (Bigarray.Array1.get f i))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

type run = { passes : pass list; setup_times : float list }

(* A workload's untraced run. The set-up runs once for the passes'
   input, then again [per_core] times on every allowed core ahead of
   each pass, so the set-ups sample the run's whole time span on both
   cores like the steps of the passes do. [same a b] tells whether two
   set-ups produced the same inputs; every set-up must reproduce the
   first. [setup_times] are all the set-ups' times; setup_s is the
   fastest, for the reason wall_s sums fastest steps. *)
let run ~seconds ~per_core ~same setup pass =
  let input, t0 = on_core 0 (fun () -> time setup) in
  let times = ref [ t0 ] in
  let round _ =
    for i = 1 to per_core * Array.length (Lazy.force cores) do
      let v, t = on_core i (fun () -> time setup) in
      check (same v input) "set-up did not reproduce the first set-up";
      times := t :: !times
    done
  in
  let passes = run_passes ~seconds ~before:round (fun () -> pass input) in
  { passes; setup_times = List.rev !times }

(* Every pass must reproduce the first pass's outputs bit for bit. *)
let check_passes_identical name (passes : pass list) =
  match passes with
  | [] -> ()
  | first :: rest ->
    List.iteri
      (fun i p ->
        check (p.digest = first.digest) "%s: pass %d outputs differ from pass 1" name (i + 2))
      rest

(* ---- process and host ---- *)

(* The host reference: a fixed loop that calls no repository code — a
   sweep over a 256 KB (cache-resident) Bigarray plus a burst of minor
   allocation — timed [reps] times; the fastest repetition in ms. It
   moves only when the host does, and exposes host drift between
   runs. *)
let host_ref_ms ?(reps = 25) () =
  let n = 1 lsl 15 in
  let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill a 1.0;
  let once () =
    let acc = ref 0. in
    for _ = 1 to 16 do
      for i = 0 to n - 1 do
        let v = Bigarray.Array1.unsafe_get a i in
        Bigarray.Array1.unsafe_set a i ((v *. 0.999999) +. 1e-7);
        acc := !acc +. v
      done;
      let l = ref [] in
      for i = 0 to 4095 do
        l := float_of_int i :: !l
      done;
      ignore (Sys.opaque_identity !l)
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let best = ref infinity in
  for _ = 1 to reps do
    let (), dt = time once in
    if dt < !best then best := dt
  done;
  !best *. 1e3

(* ---- the result line ---- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let result_line metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float m.value)
          m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failed = 0 && !attempted > 0)
    (max 1 !attempted) !failed (String.concat ", " ms)
