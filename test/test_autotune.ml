(* Tests for Autotune: caching semantics, persistence, variant
   equivalence, and communication-policy tuning. *)

module Tuner = Autotune.Tuner
module Variants = Autotune.Variants
module Comm_tune = Autotune.Comm_tune
module Field = Linalg.Field

let test_tuner_caches () =
  let t = Tuner.create ~repeats:1 () in
  let calls = ref 0 in
  let candidates =
    [
      Tuner.candidate "a" (fun () -> incr calls);
      Tuner.candidate "b" (fun () -> incr calls);
    ]
  in
  let w1 = Tuner.tune t ~kernel:"k" ~signature:"v1" candidates in
  let calls_after_first = !calls in
  let w2 = Tuner.tune t ~kernel:"k" ~signature:"v1" candidates in
  Alcotest.(check string) "same winner" w1 w2;
  Alcotest.(check int) "no re-measurement" calls_after_first !calls;
  Alcotest.(check int) "one search" 1 (Tuner.tune_count t);
  Alcotest.(check int) "one hit" 1 (Tuner.hit_count t)

let test_tuner_distinguishes_signatures () =
  let t = Tuner.create ~repeats:1 () in
  let candidates = [ Tuner.candidate "only" (fun () -> ()) ] in
  ignore (Tuner.tune t ~kernel:"k" ~signature:"v1" candidates);
  ignore (Tuner.tune t ~kernel:"k" ~signature:"v2" candidates);
  Alcotest.(check int) "two searches" 2 (Tuner.tune_count t)

(* The winner rule on fixed samples, no clock: the baseline (first)
   has median 10 and spread 4 (max 12 - min 8). *)
let test_tuner_choose_margin () =
  let base = ("base", [| 12.; 10.; 8. |]) in
  Alcotest.(check (pair string (float 0.)))
    "a challenger inside the baseline's spread loses" ("base", 10.)
    (Tuner.choose [ base; ("near", [| 7.; 7.; 7. |]); ("slow", [| 20.; 20.; 20. |]) ]);
  Alcotest.(check (pair string (float 0.)))
    "a challenger beyond the spread wins" ("far", 5.)
    (Tuner.choose [ base; ("near", [| 7.; 7.; 7. |]); ("far", [| 5.; 6.; 4. |]) ]);
  Alcotest.(check (pair string (float 0.)))
    "a lone baseline wins" ("base", 10.) (Tuner.choose [ base ]);
  Alcotest.check_raises "no candidates"
    (Invalid_argument "Tuner.choose: no candidates") (fun () ->
      ignore (Tuner.choose []))

let test_tuner_picks_faster () =
  let t = Tuner.create ~repeats:3 () in
  let slow () =
    let acc = ref 0. in
    for i = 1 to 2_000_000 do
      acc := !acc +. float_of_int i
    done;
    ignore !acc
  in
  let fast () = () in
  let w =
    Tuner.tune t ~kernel:"speed" ~signature:"x"
      [ Tuner.candidate "slow" slow; Tuner.candidate "fast" fast ]
  in
  Alcotest.(check string) "fast wins" "fast" w

let test_tuner_backup_restore () =
  let t = Tuner.create ~repeats:2 () in
  let data = ref 0 in
  let snapshots = ref 0 in
  let backup () = incr snapshots in
  let restore () = data := 0 in
  ignore
    (Tuner.tune t ~backup ~restore ~kernel:"destructive" ~signature:"s"
       [ Tuner.candidate "only" (fun () -> data := !data + 1) ]);
  Alcotest.(check int) "data restored" 0 !data;
  Alcotest.(check int) "backup per trial" 2 !snapshots

let test_tuner_save_load () =
  let t = Tuner.create ~repeats:1 () in
  ignore
    (Tuner.tune t ~kernel:"k1" ~signature:"s1"
       [ Tuner.candidate "w" (fun () -> ()) ]);
  let path = Filename.temp_file "tunecache" ".tsv" in
  Tuner.save t path;
  let t2 = Tuner.create () in
  let loaded = Tuner.load t2 path in
  Sys.remove path;
  Alcotest.(check bool) "load succeeds" true (loaded = Ok ());
  (match Tuner.lookup t2 ~kernel:"k1" ~signature:"s1" with
  | Some e -> Alcotest.(check string) "winner persisted" "w" e.Tuner.winner
  | None -> Alcotest.fail "entry lost");
  (* a lookup over candidates that still contain the persisted winner
     hits the cache, no re-search *)
  ignore
    (Tuner.tune t2 ~kernel:"k1" ~signature:"s1"
       [ Tuner.candidate "w" (fun () -> ()) ]);
  Alcotest.(check int) "no search after load" 0 (Tuner.tune_count t2);
  (* but a persisted winner absent from the live candidates — a stale
     tunecache from before a variant-space change — is refused: the
     search re-runs instead of serving a label nothing can execute *)
  let w' =
    Tuner.tune t2 ~kernel:"k1" ~signature:"s1"
      [ Tuner.candidate "other" (fun () -> ()) ]
  in
  Alcotest.(check string) "stale winner re-tuned" "other" w';
  Alcotest.(check int) "stale entry forced a search" 1 (Tuner.tune_count t2)

(* a malformed tunecache line is one typed error naming the file, the
   line and the reason, and nothing of the file is loaded *)
let load_lines lines =
  let path = Filename.temp_file "tunecache" ".tsv" in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  let t = Tuner.create () in
  let r = Tuner.load t path in
  Sys.remove path;
  (path, t, r)

let good_line = "k1\ts1\tw\t1.0e-03\t2\t0.000"

let test_tuner_load_truncated () =
  let path, t, r = load_lines [ good_line; "k2\ts2\tw" ] in
  (match r with
  | Error e ->
    Alcotest.(check string) "names the file" path e.Tuner.path;
    Alcotest.(check int) "names the line" 2 e.Tuner.line;
    Alcotest.(check string) "names the reason"
      "expected 6 tab-separated fields, found 3" e.Tuner.reason
  | Ok () -> Alcotest.fail "truncated line accepted");
  Alcotest.(check int) "nothing loaded" 0 (List.length (Tuner.entries t))

let test_tuner_load_bad_number () =
  let path, t, r = load_lines [ "k1\ts1\tw\tfast\t2\t0.000"; good_line ] in
  (match r with
  | Error e ->
    Alcotest.(check string) "error text"
      (path ^ ":1: time_s \"fast\" is not a number")
      (Tuner.load_error_to_string e)
  | Ok () -> Alcotest.fail "non-numeric time_s accepted");
  Alcotest.(check int) "nothing loaded" 0 (List.length (Tuner.entries t))

let test_axpy_variants_agree () =
  let rng = Util.Rng.create 5 in
  let n = 1000 in
  let x = Field.create n in
  Field.gaussian rng x;
  let reference = Field.create n in
  Field.gaussian rng reference;
  List.iter
    (fun (label, f) ->
      let y1 = Field.copy reference in
      let y2 = Field.copy reference in
      Field.axpy 0.7 x y1;
      f 0.7 x y2;
      Alcotest.(check (float 0.)) (label ^ " equals Field.axpy") 0.
        (Field.max_abs_diff y1 y2))
    Variants.axpy_variants

let test_tune_hop_returns_valid_plan () =
  let tuner = Tuner.create ~repeats:1 () in
  let geom = Lattice.Geometry.create [| 4; 4; 2; 2 |] in
  let gauge = Lattice.Gauge.unit geom in
  let w = Dirac.Wilson.of_geometry geom gauge in
  let n = Lattice.Geometry.volume geom * 24 in
  let src = Field.create n and dst = Field.create n in
  let label, plan = Variants.tune_hop tuner w ~src ~dst ~signature:"4422" in
  Alcotest.(check string) "label names the plan" (Variants.label plan) label;
  Alcotest.(check bool) "only the geometry axis varies" true
    ({ plan with Variants.geometry = None } = Variants.baseline);
  match plan.Variants.geometry with
  | None -> ()
  | Some (domains, chunk) ->
    Alcotest.(check bool) "sane geometry" true (domains >= 2 && chunk >= 1)

(* the one plan record over its full product space: the label is
   injective, and every space built from any sub-product of the axes —
   which is how each tune_* function builds its own — holds the
   baseline, once, under its label *)
let prop_one_plan =
  let modes = Linalg.Fused.[ Unfused; Fused; Tail_fused ] in
  let codecs = Linalg.Su3_codec.all in
  let widths = [ 1; 2; 4; 8 ] and ranks = [ 0; 2; 4; 8 ] in
  let pick mask l = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) l in
  let product ms cs ws rs gs =
    let ( let* ) l f = List.concat_map f l in
    let* mode = ms in
    let* recon = cs in
    let* k = ws in
    let* rank = rs in
    let* geometry = gs in
    [ { Variants.mode; recon; k; rank; geometry } ]
  in
  let distinct l = List.length (List.sort_uniq compare l) in
  QCheck.Test.make ~count:200
    ~name:"plan: label injective, baseline in every space"
    QCheck.(
      pair
        (quad (int_bound 7) (int_bound 7) (int_bound 15) (int_bound 15))
        (small_list (pair (int_range 2 8) (int_range 1 65536))))
    (fun ((mm, cm, wm, rm), geometries) ->
      let all =
        product modes codecs widths ranks
          (None :: List.map Option.some geometries)
      in
      let sp =
        Variants.space
          (product (pick mm modes) (pick cm codecs) (pick wm widths)
             (pick rm ranks) [ None ])
          ~geometries
      in
      distinct (List.map Variants.label all) = distinct all
      && List.assoc_opt (Variants.label Variants.baseline) sp
         = Some Variants.baseline
      && List.for_all (fun (l, p) -> l = Variants.label p) sp
      && distinct (List.map fst sp) = List.length sp)

(* each tune_* function's live space holds the baseline — even with
   its axis restricted away from the baseline value (a recon12-only
   codec list, a rank-4-only rank list, a lint rejecting everything):
   a tunecache whose winner is the baseline label is served as a cache
   hit, which Tuner.tune only does for a label among the live
   candidates *)
let test_tune_spaces_hold_baseline () =
  let geom = Lattice.Geometry.create [| 4; 4; 2; 2 |] in
  let gauge = Lattice.Gauge.random geom (Util.Rng.create 12) in
  let w = Dirac.Wilson.of_geometry geom gauge in
  let n = Lattice.Geometry.volume geom * 24 in
  let fields () = Array.init 2 (fun _ -> Field.create n) in
  let srcs = fields () and dsts = fields () in
  let dn = 32 in
  let apply (x : Field.t) (y : Field.t) =
    for i = 0 to dn - 1 do
      Bigarray.Array1.set y i
        ((0.1 +. float_of_int i) *. Bigarray.Array1.get x i)
    done
  in
  let base = Variants.label Variants.baseline in
  List.iter
    (fun (name, tune) ->
      let t = Tuner.create ~repeats:1 () in
      ignore (tune t : string * Variants.plan);
      let e = List.hd (Tuner.entries t) in
      let _, t', r =
        load_lines
          [
            Printf.sprintf "%s\t%s\t%s\t1e-09\t1\t0" e.Tuner.kernel
              e.Tuner.signature base;
          ]
      in
      Alcotest.(check bool) (name ^ " cache loads") true (r = Ok ());
      let winner, plan = tune t' in
      Alcotest.(check string) (name ^ " serves the baseline") base winner;
      Alcotest.(check bool) (name ^ " baseline plan") true
        (plan = Variants.baseline);
      Alcotest.(check int) (name ^ " without a search") 0 (Tuner.tune_count t'))
    [
      ( "tune_hop",
        fun t -> Variants.tune_hop ~max_domains:2 t w ~src:srcs.(0) ~dst:dsts.(0)
            ~signature:"s" );
      ( "tune_fusion",
        fun t ->
          Variants.tune_fusion ~max_domains:2
            ~lint:(fun ~mode:_ ~geometry:_ -> Some "rejected")
            t ~n:4096 );
      ( "tune_hop_recon",
        fun t ->
          Variants.tune_hop_recon ~max_domains:2
            ~codecs:[ Linalg.Su3_codec.Recon12 ] t geom gauge ~srcs ~dsts
            ~signature:"s" );
      ( "tune_deflation",
        fun t ->
          Variants.tune_deflation ~ranks:[ 4 ] ~solves:1 t ~apply ~n:dn
            ~signature:"s" );
    ]

let test_pool_geometries_shape () =
  let geoms = Variants.pool_geometries ~max_domains:8 ~n:(1 lsl 20) () in
  Alcotest.(check bool) "non-empty with 8 lanes" true (geoms <> []);
  List.iter
    (fun (d, c) ->
      Alcotest.(check bool) "domains in [2, cap]" true (d >= 2 && d <= 8);
      Alcotest.(check bool) "power of two" true (d land (d - 1) = 0);
      Alcotest.(check bool) "chunk above floor" true (c >= 1024))
    geoms;
  let floored = Variants.pool_geometries ~max_domains:4 ~chunk_floor:64 ~n:512 () in
  List.iter
    (fun (_, c) -> Alcotest.(check bool) "custom floor" true (c >= 64))
    floored;
  Alcotest.(check (list (pair int int))) "empty on single-core cap" []
    (Variants.pool_geometries ~max_domains:1 ~n:(1 lsl 20) ())

let test_tune_axpy_key_isolation () =
  (* the cache-key audit: winners must never be served across vector
     lengths or machine widths, because the pooled geometry that wins
     at one shape loses at another *)
  let tuner = Tuner.create ~repeats:1 () in
  ignore (Variants.tune_axpy ~max_domains:2 tuner ~n:4096);
  Alcotest.(check int) "first shape searches" 1 (Tuner.tune_count tuner);
  ignore (Variants.tune_axpy ~max_domains:2 tuner ~n:65536);
  Alcotest.(check int) "different n searches again" 2 (Tuner.tune_count tuner);
  ignore (Variants.tune_axpy ~max_domains:4 tuner ~n:65536);
  Alcotest.(check int) "different dmax searches again" 3
    (Tuner.tune_count tuner);
  ignore (Variants.tune_axpy ~max_domains:2 tuner ~n:4096);
  Alcotest.(check int) "repeat shape served from cache" 3
    (Tuner.tune_count tuner);
  Alcotest.(check int) "cache hit recorded" 1 (Tuner.hit_count tuner)

let test_tune_hop_key_isolation () =
  (* identical caller signature, different lattice: the embedded
     ":n<sites>:dmax<cap>" suffix must force a fresh search *)
  let tuner = Tuner.create ~repeats:1 () in
  let tune dims =
    let geom = Lattice.Geometry.create dims in
    let gauge = Lattice.Gauge.unit geom in
    let w = Dirac.Wilson.of_geometry geom gauge in
    let n = Lattice.Geometry.volume geom * 24 in
    let src = Field.create n and dst = Field.create n in
    ignore (Variants.tune_hop tuner w ~src ~dst ~signature:"same")
  in
  tune [| 4; 4; 2; 2 |];
  tune [| 4; 4; 4; 2 |];
  Alcotest.(check int) "two volumes, two searches" 2 (Tuner.tune_count tuner);
  tune [| 4; 4; 2; 2 |];
  Alcotest.(check int) "repeat volume cached" 2 (Tuner.tune_count tuner)

let test_comm_tune_caches () =
  let ct = Comm_tune.create () in
  let p = Machine.Perf_model.problem ~dims:[| 48; 48; 48; 64 |] ~l5:20 in
  let r1 = Comm_tune.pick ct Machine.Spec.sierra p ~n_gpus:16 in
  let r2 = Comm_tune.pick ct Machine.Spec.sierra p ~n_gpus:16 in
  Alcotest.(check bool) "found" true (r1 <> None && r2 <> None);
  Alcotest.(check int) "one tune" 1 (Comm_tune.tune_count ct);
  Alcotest.(check int) "one hit" 1 (Comm_tune.hit_count ct)

let test_comm_tune_respects_availability () =
  let ct = Comm_tune.create () in
  let p = Machine.Perf_model.problem ~dims:[| 48; 48; 48; 64 |] ~l5:20 in
  match Comm_tune.pick ct Machine.Spec.sierra p ~n_gpus:64 with
  | None -> Alcotest.fail "no policy"
  | Some (pol, _) ->
    Alcotest.(check bool) "no GDR picked on Sierra" true
      (pol.Machine.Policy.transfer <> Machine.Policy.Gdr)

let test_comm_tune_survey () =
  let ct = Comm_tune.create () in
  let p = Machine.Perf_model.problem ~dims:[| 48; 48; 48; 64 |] ~l5:20 in
  let rows = Comm_tune.survey ct Machine.Spec.ray p ~gpu_counts:[ 4; 16; 64 ] in
  Alcotest.(check int) "3 rows" 3 (List.length rows);
  List.iter
    (fun (r : Comm_tune.survey_row) ->
      Alcotest.(check bool) "positive" true (r.Comm_tune.tflops > 0.);
      (* the halo-completion granularity axis is explicit: every row
         carries both the best-coarse and best-fine outcome, and the
         winner matches the better of the two *)
      match (r.Comm_tune.coarse_tflops, r.Comm_tune.fine_tflops) with
      | Some c, Some f ->
        let best = Float.max c f in
        Alcotest.(check (float 1e-9)) "winner = max(coarse, fine)" best
          r.Comm_tune.tflops;
        let expect_gran =
          if f >= c then Machine.Policy.Fine else Machine.Policy.Coarse
        in
        Alcotest.(check bool) "winner granularity consistent" true
          (r.Comm_tune.winner.Machine.Policy.granularity = expect_gran
          || Float.abs (c -. f) < 1e-9 *. best)
      | _ -> Alcotest.fail "granularity column missing")
    rows

let test_comm_tune_caches_negative () =
  (* an infeasible GPU count (no 4-factor grid divides the dims) must be
     tuned once and then served from cache — the regression for the
     None-not-cached bug *)
  let ct = Comm_tune.create () in
  let p = Machine.Perf_model.problem ~dims:[| 48; 48; 48; 64 |] ~l5:20 in
  Alcotest.(check bool) "infeasible" true
    (Comm_tune.pick ct Machine.Spec.sierra p ~n_gpus:7 = None);
  Alcotest.(check bool) "still infeasible" true
    (Comm_tune.pick ct Machine.Spec.sierra p ~n_gpus:7 = None);
  Alcotest.(check int) "one tune" 1 (Comm_tune.tune_count ct);
  Alcotest.(check int) "one hit" 1 (Comm_tune.hit_count ct)

let suite =
  [
    Alcotest.test_case "tuner caches" `Quick test_tuner_caches;
    Alcotest.test_case "tuner signatures" `Quick test_tuner_distinguishes_signatures;
    Alcotest.test_case "tuner picks faster" `Quick test_tuner_picks_faster;
    Alcotest.test_case "tuner winner margin" `Quick test_tuner_choose_margin;
    Alcotest.test_case "backup/restore" `Quick test_tuner_backup_restore;
    Alcotest.test_case "save/load" `Quick test_tuner_save_load;
    Alcotest.test_case "load: truncated line" `Quick test_tuner_load_truncated;
    Alcotest.test_case "load: non-numeric time_s" `Quick
      test_tuner_load_bad_number;
    Alcotest.test_case "axpy variants agree" `Quick test_axpy_variants_agree;
    Alcotest.test_case "tune_hop valid" `Quick test_tune_hop_returns_valid_plan;
    QCheck_alcotest.to_alcotest prop_one_plan;
    Alcotest.test_case "every tune space holds the baseline" `Quick
      test_tune_spaces_hold_baseline;
    Alcotest.test_case "pool geometries" `Quick test_pool_geometries_shape;
    Alcotest.test_case "tune_axpy key isolation" `Quick test_tune_axpy_key_isolation;
    Alcotest.test_case "tune_hop key isolation" `Quick test_tune_hop_key_isolation;
    (* the tuning sweeps above spawn shared pools; quiesce them so the
       idle domains don't tax GC in the suites that run after this one *)
    Alcotest.test_case "quiesce shared pools" `Quick (fun () ->
        Util.Pool.shutdown_shared ());
    Alcotest.test_case "comm_tune caches" `Quick test_comm_tune_caches;
    Alcotest.test_case "comm_tune availability" `Quick test_comm_tune_respects_availability;
    Alcotest.test_case "comm_tune survey" `Quick test_comm_tune_survey;
    Alcotest.test_case "comm_tune caches None" `Quick test_comm_tune_caches_negative;
  ]
