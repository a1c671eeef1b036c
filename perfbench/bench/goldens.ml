(* Physics goldens. fig2_double's outputs are gauge invariant and are
   checked at every seed; ensemble_io's at its default seed 20180920
   only; the distributed solve's counts on its fixed input. Tolerances
   are relative (absolute below 1):

   - the plaquette depends on the heatbath only: 1e-12;
   - correlators, effective mass and g_eff: 1e-6. At mass 0.02 on this
     configuration the Mixed (double-half) and Double solves give
     outputs that differ by at most 2.2e-8, so the tolerance holds
     whichever solver precision produced them;
   - the Fig 1 gA is a deterministic bootstrap fit: 1e-6 (its
     statistical error is 1.5%);
   - the distributed solve's iteration, exchange and message counts are
     exact. *)

type fig2 = { plaquette : float; pion : float array; m_eff : float array; geff : float array }
type ensemble = { plaquettes : float array; ga : float }
type dd = { iterations : int; exchanges : int; messages : int }

let plaquette_tol = 1e-12
let correlator_tol = 1e-6
let ga_tol = 1e-6

let fig2 =
  {
    plaquette = 0.5694911652071597;
    pion = [| 0.36796346172978101; 0.16645474768760032; 0.080954341833289936; 0.17145051788208163 |];
    m_eff = [| 0.79326015764168034; 0.72083817214598078; -0.75040938483155806 |];
    geff = [| 1.1383759845771482; 0.43720008831842161; 0.1132078775562424 |];
  }

let ensemble_io =
  {
    plaquettes =
      [|
        0.61726715168456614;
        0.58543192680717882;
        0.57334150073513224;
        0.5672915646410911;
        0.56206531102666213;
        0.56269922192321875;
      |];
    ga = 1.2753794360715798;
  }

let dd_halo = { iterations = 84; exchanges = 169; messages = 5408 }
