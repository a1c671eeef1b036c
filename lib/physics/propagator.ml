(* Quark propagators: 12 domain-wall solves (4 spins x 3 colors) from a
   common source, giving the 4D point-to-all propagator
   G(x; src)_{spin,color; src_spin,src_color} — the numerically
   expensive ingredient of the workflow (Fig 2: ~97% of execution). *)

module Field = Linalg.Field
module Geometry = Lattice.Geometry
module Cplx = Linalg.Cplx

let fps = Dirac.Gamma.floats_per_site

type t = {
  geom : Geometry.t;
  columns : Field.t array;  (* index src_spin*3 + src_color; 4D fields *)
  midpoint : Field.t array option;
      (* 5D-midpoint columns, for the residual-mass current J5q *)
  stats : Solver.Cg.stats list;  (* per-column solver statistics *)
}

let column_index ~spin ~color = (spin * 3) + color

exception Not_converged of { column : int; stats : Solver.Cg.stats }

(* A column whose solve did not converge is an error, not a quietly
   wrong propagator: every solve path here goes through this check. *)
let checked column ((_, st) as solved : Field.t * Solver.Cg.stats) =
  if not st.Solver.Cg.converged then raise (Not_converged { column; stats = st });
  solved

(* The "midpoint" 4D field of a 5D solution: the pseudoscalar density
   J5q that measures residual chiral symmetry breaking lives at
   s = L5/2: q_mid = P- psi(L5/2) + P+ psi(L5/2 - 1). *)
let midpoint_4d ~l5 geom (psi : Field.t) : Field.t =
  let vol = Geometry.volume geom in
  let q = Field.create (vol * fps) in
  let s_minus = l5 / 2 and s_plus = (l5 / 2) - 1 in
  let b_minus = s_minus * vol * fps and b_plus = s_plus * vol * fps in
  for site = 0 to vol - 1 do
    let o = site * fps in
    (* P- component (spins 2,3) from slice L5/2 *)
    for k = 12 to 23 do
      Bigarray.Array1.set q (o + k) (Bigarray.Array1.get psi (b_minus + o + k))
    done;
    (* P+ component (spins 0,1) from slice L5/2 - 1 *)
    for k = 0 to 11 do
      Bigarray.Array1.set q (o + k) (Bigarray.Array1.get psi (b_plus + o + k))
    done
  done;
  q

(* Solve the 12 columns for a 4D source builder. [keep_midpoint] also
   extracts the 5D-midpoint field of each column. *)
let compute ?(precision = Solver.Dwf_solve.Double) ?(tol = 1e-10)
    ?(keep_midpoint = false) (solver : Solver.Dwf_solve.t)
    ~(source : spin:int -> color:int -> Field.t) =
  let geom = solver.Solver.Dwf_solve.geom in
  let l5 = solver.Solver.Dwf_solve.params.Dirac.Mobius.l5 in
  let stats = ref [] in
  let midpoints = ref [] in
  let columns =
    Array.init 12 (fun idx ->
        let spin = idx / 3 and color = idx mod 3 in
        let eta = source ~spin ~color in
        let rhs = Source.to_5d ~l5 geom eta in
        let x5, st =
          checked idx (Solver.Dwf_solve.solve ~precision ~tol solver ~rhs)
        in
        stats := st :: !stats;
        if keep_midpoint then midpoints := midpoint_4d ~l5 geom x5 :: !midpoints;
        Source.to_4d ~l5 geom x5)
  in
  {
    geom;
    columns;
    midpoint =
      (if keep_midpoint then Some (Array.of_list (List.rev !midpoints)) else None);
    stats = List.rev !stats;
  }

let point_propagator ?precision ?tol ?keep_midpoint solver ~src_site =
  compute ?precision ?tol ?keep_midpoint solver ~source:(fun ~spin ~color ->
      Source.point (Solver.Dwf_solve.geom_of solver) ~site:src_site ~spin ~color)

(* G(site)_{s,c; s0,c0} *)
let get t ~site ~spin ~color ~src_spin ~src_color =
  let col = t.columns.(column_index ~spin:src_spin ~color:src_color) in
  let o = (site * fps) + (((spin * 3) + color) * 2) in
  Cplx.make (Bigarray.Array1.get col o) (Bigarray.Array1.get col (o + 1))

let total_flops t =
  List.fold_left (fun acc st -> acc +. st.Solver.Cg.flops) 0. t.stats

let total_iterations t =
  List.fold_left (fun acc st -> acc + st.Solver.Cg.iterations) 0 t.stats

let total_seconds t =
  List.fold_left (fun acc st -> acc +. st.Solver.Cg.seconds) 0. t.stats

(* Build a derived propagator by solving once per column (e.g. a
   Feynman-Hellmann solve): the new columns carry their own solves'
   stats. Midpoint data does not transport. *)
let map t f =
  let solved = Array.mapi (fun c col -> checked c (f col)) t.columns in
  let columns, stats = Array.split solved in
  { t with columns; midpoint = None; stats = Array.to_list stats }

(* Pseudoscalar-density correlators used by the residual-mass
   measurement: sum_x <J(x,t) J(0)> built from column overlaps. *)
let density_correlator geom (a : Field.t array) (b : Field.t array) =
  let nt = Geometry.time_extent geom in
  let c = Array.make nt 0. in
  Geometry.iter_sites geom (fun site ->
      let t = (Geometry.coords geom site).(3) in
      let acc = ref 0. in
      Array.iteri
        (fun col col_a ->
          let col_b = b.(col) in
          for k = 0 to fps - 1 do
            acc :=
              !acc
              +. (Bigarray.Array1.get col_a ((site * fps) + k)
                 *. Bigarray.Array1.get col_b ((site * fps) + k))
          done)
        a;
      c.(t) <- c.(t) +. !acc);
  c

(* Residual mass from the midpoint current:
     m_res = sum_t <J5q(t) P(0)> / sum_t <P(t) P(0)>
   (the standard DWF definition; -> 0 as L5 -> infinity). Requires a
   propagator computed with ~keep_midpoint:true. *)
let residual_mass t =
  match t.midpoint with
  | None -> invalid_arg "Propagator.residual_mass: need keep_midpoint:true"
  | Some mid ->
    let j5q = density_correlator t.geom mid mid in
    let pp = density_correlator t.geom t.columns t.columns in
    let num = ref 0. and den = ref 0. in
    (* skip t=0 (contact terms) *)
    for tt = 1 to Array.length pp - 1 do
      num := !num +. j5q.(tt);
      den := !den +. pp.(tt)
    done;
    !num /. !den
