(* The traced run's span recorder. Spans are recorded from the
   benchmark's own code around calls into each layer (name, start, end,
   parent), with exact counters attached at every span: Gc minor words
   and major collections measured at the boundary, plus the counts the
   caller knows (iterations, flops, messages, bytes). Spans stay in
   memory and are written out at the end as a Chrome trace-event JSON
   and a text roll-up of self time per layer. A span name is
   "<layer>.<what>"; the layer is the part before the first dot. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  start : float;
  mutable stop : float;
  minor0 : float;
  mutable minor_words : float;
  major0 : int;
  mutable major_gcs : int;
  mutable counters : (string * float) list;
}

let recorded : span list ref = ref []
let open_ : span list ref = ref []
let next_id = ref 0

let reset () =
  recorded := [];
  open_ := [];
  next_id := 0

let span name f =
  let parent = match !open_ with [] -> -1 | s :: _ -> s.id in
  let s =
    {
      id = !next_id;
      name;
      parent;
      start = Unix.gettimeofday ();
      stop = nan;
      minor0 = Gc.minor_words ();
      minor_words = 0.;
      major0 = (Gc.quick_stat ()).Gc.major_collections;
      major_gcs = 0;
      counters = [];
    }
  in
  incr next_id;
  open_ := s :: !open_;
  let finish () =
    s.stop <- Unix.gettimeofday ();
    s.minor_words <- Gc.minor_words () -. s.minor0;
    s.major_gcs <- (Gc.quick_stat ()).Gc.major_collections - s.major0;
    open_ := List.tl !open_;
    recorded := s :: !recorded
  in
  Fun.protect ~finally:finish f

(* Attach a counter to the innermost open span. Outside the traced run
   no span is open and the count is dropped, so a pipeline shared with
   the untraced passes can report its counts unconditionally. *)
let count key v =
  match !open_ with [] -> () | s :: _ -> s.counters <- (key, v) :: s.counters

(* The traced run's wrapper: every stage and step becomes a span. *)
let wrap = { Measure.stage = (fun name f -> span ("stage." ^ name) f); step = span }

let all () = List.sort (fun a b -> compare a.id b.id) !recorded
let duration s = s.stop -. s.start
let counter s key = try List.assoc key s.counters with Not_found -> 0.
let named name = List.filter (fun s -> s.name = name) (all ())
let total name = List.fold_left (fun acc s -> acc +. duration s) 0. (named name)

let sum_counter name key =
  List.fold_left (fun acc s -> acc +. counter s key) 0. (named name)

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Self time: the span's duration minus the part its children cover
   (children are sequential, so their durations add). *)
let self_time spans s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. duration c else acc)
    (duration s) spans

let self_minor spans s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. c.minor_words else acc)
    s.minor_words spans

(* ---- exporters ---- *)

let json_string s = Printf.sprintf "%S" s

let write_chrome path =
  let spans = all () in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      let args =
        ("minor_words", s.minor_words)
        :: ("major_gcs", float_of_int s.major_gcs)
        :: List.rev s.counters
      in
      Printf.fprintf oc
        "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {%s}}"
        (if i = 0 then "" else ",\n")
        (json_string s.name)
        (json_string (layer_of s.name))
        ((s.start -. t0) *. 1e6)
        (duration s *. 1e6)
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) (Measure.json_float v)) args)))
    spans;
  output_string oc "\n], \"displayTimeUnit\": \"ms\"}\n";
  close_out oc

(* Text roll-up: one row per span name (calls, total, self time, exact
   Gc counters, computed flops/bytes and the rates they give over self
   time), then self time per layer. [flops]/[bytes] counters are
   computed from the repository's own accounting ([Dirac.Flops],
   [Machine.Perf_model]) and labelled as such. *)
let rollup ~wall =
  let spans = all () in
  let names = List.sort_uniq compare (List.map (fun s -> s.name) spans) in
  let b = Buffer.create 4096 in
  Printf.bprintf b "%-26s %6s %10s %10s %10s %8s %12s %12s %10s %10s\n" "span" "calls"
    "total_s" "self_s" "minor_Mw" "majors" "flops(comp)" "bytes(comp)" "GF/s(comp)"
    "GB/s(comp)";
  List.iter
    (fun name ->
      let ss = List.filter (fun s -> s.name = name) spans in
      let sum f = List.fold_left (fun acc s -> acc +. f s) 0. ss in
      let self = sum (self_time spans) in
      let flops = sum (fun s -> counter s "flops") in
      let bytes = sum (fun s -> counter s "bytes") in
      let rate x = if x > 0. && self > 0. then Printf.sprintf "%.3f" (x /. self /. 1e9) else "-" in
      Printf.bprintf b "%-26s %6d %10.4f %10.4f %10.3f %8.0f %12.4g %12.4g %10s %10s\n" name
        (List.length ss) (sum duration) self
        (sum (self_minor spans) /. 1e6)
        (sum (fun s -> float_of_int s.major_gcs))
        flops bytes (rate flops) (rate bytes))
    names;
  (* the layer split covers the traced pipeline only, not the probes
     and checks that run after it *)
  let spans =
    match List.find_opt (fun s -> s.name = "core.pipeline") spans with
    | None -> []
    | Some root -> List.filter (fun s -> s.start >= root.start && s.stop <= root.stop) spans
  in
  let layers = List.sort_uniq compare (List.map (fun s -> layer_of s.name) spans) in
  Printf.bprintf b "\nself time per layer (traced wall %.4f s)\n" wall;
  List.iter
    (fun layer ->
      let self =
        List.fold_left
          (fun acc s -> if layer_of s.name = layer then acc +. self_time spans s else acc)
          0. spans
      in
      Printf.bprintf b "  %-12s %10.4f s  %5.1f%%\n" layer self (100. *. self /. wall))
    layers;
  Buffer.contents b
