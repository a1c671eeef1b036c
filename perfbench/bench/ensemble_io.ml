(* ensemble_io: Markov-chain generation of an 8⁴ gauge ensemble
   (heatbath plus overrelaxation, [Lattice.Heatbath.generate]'s
   schedule), every configuration written to an H5lite archive and
   reloaded CRC-verified and bit-equal, then the Fig 1 bootstrap gA fit
   on the a09m310 synthetic ensemble (784 samples). The solver does no
   work here: solver and kernel changes must not move it.

   Set-up draws the synthetic correlator ensemble the fit consumes.
   [pipeline] is the chain, the archive and the fit: an untraced pass
   runs it with every call timed as a step (one per combined sweep);
   the traced run runs it with every call in a span and must reproduce
   [Heatbath.generate] + archive + fit bit for bit. *)

module Heatbath = Lattice.Heatbath
module Gauge = Lattice.Gauge
module H5 = Qio.H5lite

let default_seed = 20_180_920
let dims = [| 8; 8; 8; 8 |]
let n_configs = 4

let schedule =
  { Heatbath.beta = 5.7; n_thermalize = 2; n_decorrelate = 1; n_overrelax = 2 }

let fit_samples = 784

(* The Fig 1 inputs: (C | C_FH) rows drawn from the seed. *)
let synthetic seed =
  let rng = Util.Rng.create (seed + 1) in
  Physics.Synth.paired_samples (Physics.Synth.ensemble rng Physics.Synth.a09m310 ~n:fit_samples)

let fit seed samples =
  let p = Physics.Synth.a09m310 in
  let f =
    Physics.Analysis.fit_geff ~rng:(Util.Rng.create (seed + 2)) ~n_boot:200 samples
      ~observable:(Physics.Synth.geff_observable p) ~t_min:1 ~t_max:12
  in
  (f.Physics.Analysis.ga, f.Physics.Analysis.ga_err)

type outputs = {
  plaquettes : float array;
  links : string list;  (* digest of each configuration's links *)
  ga : float * float;
}

let digest o =
  Measure.digest_floats [ o.plaquettes; [| fst o.ga; snd o.ga |] ]
  ^ String.concat "" o.links

let archive_path i = Printf.sprintf "cfg%d/links" i

let write_archive archive configs =
  let h5 = H5.create () in
  Array.iteri (fun i g -> H5.write_field h5 ~path:(archive_path i) (Gauge.data g)) configs;
  H5.save h5 archive

let reload_matches archive configs =
  match H5.load archive with
  | h5 ->
    Array.iteri
      (fun i g ->
        match H5.read_field h5 ~path:(archive_path i) with
        | Some f ->
          Measure.check
            (Measure.digest_field f = Measure.digest_field (Gauge.data g))
            "ensemble_io: configuration %d did not reload bit-equal" i
        | None -> Measure.check false "ensemble_io: configuration %d missing on reload" i)
      configs
  | exception H5.Corrupt msg -> Measure.check false "ensemble_io: archive corrupt on reload: %s" msg

(* [Heatbath.generate]'s chain, one combined sweep (heatbath + the
   overrelaxation sweeps + plaquette) per step. *)
let chain ~seed (w : Measure.wrap) =
  let rng = Util.Rng.create seed in
  let geom = Lattice.Geometry.create dims in
  let field = w.step "lattice.warm_start" (fun () -> Gauge.warm geom rng ~eps:0.3) in
  let plaquettes = ref [] in
  let combined () =
    w.step "lattice.heatbath" (fun () ->
        Spans.count "sweeps" 1.;
        Heatbath.sweep rng ~beta:schedule.Heatbath.beta field;
        for _ = 1 to schedule.Heatbath.n_overrelax do
          Heatbath.overrelax_sweep field
        done;
        plaquettes := Gauge.average_plaquette field :: !plaquettes)
  in
  for _ = 1 to schedule.Heatbath.n_thermalize do
    combined ()
  done;
  let configs =
    Array.init n_configs (fun _ ->
        for _ = 1 to schedule.Heatbath.n_decorrelate do
          combined ()
        done;
        Gauge.copy field)
  in
  (configs, Array.of_list (List.rev !plaquettes))

let outputs configs plaquettes ga =
  {
    plaquettes;
    links = Array.to_list (Array.map (fun g -> Measure.digest_field (Gauge.data g)) configs);
    ga;
  }

let check_outputs o =
  Measure.check (Measure.all_finite o.plaquettes) "ensemble_io: non-finite plaquette";
  Measure.check
    (Float.is_finite (fst o.ga) && Float.is_finite (snd o.ga))
    "ensemble_io: non-finite fit value"

(* The chain, every configuration archived and reloaded, and the fit,
   every call wrapped by [w]. Returns the configurations and the
   outputs. *)
let pipeline ~seed ~archive samples (w : Measure.wrap) =
  let configs, plaquettes = w.stage "gauge" (fun () -> chain ~seed w) in
  w.stage "io" (fun () ->
      w.step "qio.write" (fun () ->
          write_archive archive configs;
          Spans.count "file_bytes" (float_of_int (Unix.stat archive).Unix.st_size));
      w.step "qio.read" (fun () ->
          Spans.count "file_bytes" (float_of_int (Unix.stat archive).Unix.st_size);
          reload_matches archive configs));
  let ga = w.stage "analysis" (fun () -> w.step "physics.fit" (fun () -> fit seed samples)) in
  let o = outputs configs plaquettes ga in
  check_outputs o;
  (configs, o)

let check_goldens o =
  let g = Goldens.ensemble_io in
  Measure.check
    (Array.length o.plaquettes = Array.length g.Goldens.plaquettes
    && Array.for_all2
         (fun a b -> Float.abs (a -. b) <= Goldens.plaquette_tol)
         o.plaquettes g.Goldens.plaquettes)
    "golden plaquette history outside %.0e" Goldens.plaquette_tol;
  Measure.check
    (Float.abs (fst o.ga -. g.Goldens.ga) <= Goldens.ga_tol *. g.Goldens.ga)
    "golden Fig 1 gA %.6f vs %.6f" (fst o.ga) g.Goldens.ga

let run_untraced ~seed ~seconds ~out_dir =
  let archive = Filename.concat out_dir (Printf.sprintf "ensemble-%d.nfh5" seed) in
  let last = ref None in
  let run =
    Measure.run ~seconds ~per_core:3 ~same:( = )
      (fun () -> synthetic seed)
      (fun samples ->
        let r = Measure.recorder () in
        let _, o = pipeline ~seed ~archive samples (Measure.timed r) in
        last := Some o;
        { Measure.steps = Measure.steps r; digest = digest o })
  in
  Measure.check_passes_identical "ensemble_io" run.Measure.passes;
  let o = Option.get !last in
  Printf.printf "plaquettes: [| %s |]\ngA: %.17g +- %.17g\n"
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.17g") o.plaquettes)))
    (fst o.ga) (snd o.ga);
  if seed = default_seed then check_goldens o;
  Sys.remove archive;
  run

(* The untraced reference runs the chain through [Heatbath.generate]
   itself; the traced pipeline must reproduce it bit for bit. *)
let reference ~seed ~archive samples =
  let rng = Util.Rng.create seed in
  let configs, plaquettes =
    Heatbath.generate rng schedule (Lattice.Geometry.create dims) ~n_configs
  in
  write_archive archive configs;
  reload_matches archive configs;
  outputs configs plaquettes (fit seed samples)

(* Untraced reference runs: the median of their wall times is the base
   of trace.overhead_frac. *)
let reference_runs = 3

let run_traced ~seed ~out_dir =
  let archive = Filename.concat out_dir (Printf.sprintf "ensemble-%d.nfh5" seed) in
  let samples = synthetic seed in
  let refs =
    List.init reference_runs (fun _ -> Measure.time (fun () -> reference ~seed ~archive samples))
  in
  let ref_out = fst (List.hd refs) in
  List.iter
    (fun (o, _) ->
      Measure.check (digest o = digest ref_out) "ensemble_io: the reference did not repeat bit for bit")
    (List.tl refs);
  Spans.reset ();
  let (configs, out), traced_wall =
    Measure.time (fun () ->
        Spans.span "core.pipeline" (fun () -> pipeline ~seed ~archive samples Spans.wrap))
  in
  Sys.remove archive;
  Measure.check (digest out = digest ref_out)
    "ensemble_io: traced run did not reproduce Heatbath.generate + fit bit for bit";
  if seed = default_seed then check_goldens out;
  let gauge = configs.(n_configs - 1) in
  let probes =
    Spans.span "bench.probes" (fun () ->
        let solver =
          Solver.Dwf_solve.create
            (Dirac.Mobius.mobius ~l5:4 ~m5:1.8 ~alpha:1.5 ~mass:0.1)
            (Gauge.geom gauge) (Gauge.with_antiperiodic_time gauge)
        in
        let n = Dirac.Mobius.eo_field_length solver.Solver.Dwf_solve.eo in
        let schur = Probes.schur_normal ~reps:5 solver in
        let tail = Probes.cg_tail ~reps:10 n in
        let quant = Probes.quantize ~reps:10 n in
        (* the vrank/Comm layer: a distributed solve on a fixed input,
           so its counts are the same at every seed *)
        let dd = Dd_halo.setup () in
        let x = Dd_halo.traced_solve dd in
        Dd_halo.check_against_single_domain dd x;
        let hop = Probes.wilson_hop ~reps:5 dd.Dd_halo.gauge in
        let vhop, halo = Probes.vrank dd.Dd_halo.dd ~reps:5 in
        { Layers.schur; tail; quant; hop; vhop; halo })
  in
  Layers.metrics ~untraced_wall:(Measure.median (List.map snd refs)) ~traced_wall probes
