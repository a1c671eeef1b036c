(* Static checker for compressed gauge-link (reconstruct) executions
   (Linalg.Su3_codec / Lattice.Recon / Dirac.Wilson's packed stores and
   Vrank.Comm's compressed halo payloads). An execution is summarized
   as a [plan] — which kernel, the codec it streams links through, the
   worst source-link unitarity violation, and the epoch bookkeeping of
   any compressed halo — and the pass verifies the contract the
   reconstruction rests on:

   RECON001  a source link violates unitarity beyond the codec's
             tolerance: Recon12 rebuilds row 2 as s·conj(row0 × row1)
             and Recon8 re-derives six of nine entries from
             unitarity, so a non-unitary link decodes to a different
             matrix than was stored — the stencil silently applies the
             wrong gauge field (Full18's tolerance is infinite: it
             copies bits)
   RECON003  a compressed halo face (or packed link store) built at an
             older gauge epoch than the live field: the wire delivered
             links that were since mutated (smearing, HMC update), so
             ghost links decode stale — the gauge-field twin of the
             halo data race Halo_check hunts on spinors

   The executed codec vs the tuned one is Plan_check PLAN007. *)

type plan = {
  kernel : string;  (* e.g. "wilson_hop_recon" *)
  recon : Linalg.Su3_codec.codec;  (* codec the execution streams *)
  max_violation : float;
      (* worst Frobenius unitarity violation over the source links
         (Lattice.Gauge.max_unitarity_violation) *)
  gauge_epoch : int;  (* write epoch of the live gauge field *)
  halo_epoch : int;
      (* gauge epoch at which the packed store / compressed halo was
         built; equal to [gauge_epoch] when freshly packed *)
  halo_compressed : bool;
      (* whether ghost links arrive through a compressed payload;
         false skips RECON003 (an uncompressed exchange re-reads the
         live field every post) *)
}

let rules =
  [
    ("RECON001", "source links must be unitary within the codec tolerance");
    ("RECON003", "compressed halo must be repacked after gauge mutation");
  ]

let plan ?(gauge_epoch = 0) ?(halo_epoch = 0)
    ?(halo_compressed = false) ~kernel ~recon ~max_violation () =
  {
    kernel;
    recon;
    max_violation;
    gauge_epoch;
    halo_epoch;
    halo_compressed;
  }

let loc p =
  Printf.sprintf "%s[%s]" p.kernel (Linalg.Su3_codec.name p.recon)

let check_unitarity p =
  let tol = Linalg.Su3_codec.tolerance p.recon in
  if p.max_violation > tol then
    [
      Diagnostic.error ~rule:"RECON001" ~loc:(loc p)
        ~hint:
          "reunitarize the field (Lattice.Gauge.reunitarize) before \
           packing, or fall back to full18 for fields that must carry \
           non-unitary links"
        (Printf.sprintf
           "source link violates unitarity by %.3g where codec %s \
            tolerates %.3g: the reconstructed link is a different matrix \
            than was stored, so the stencil applies the wrong gauge field"
           p.max_violation
           (Linalg.Su3_codec.name p.recon)
           tol);
    ]
  else []

let check_halo p =
  if p.halo_compressed && p.halo_epoch < p.gauge_epoch then
    [
      Diagnostic.error ~rule:"RECON003" ~loc:(loc p)
        ~hint:
          "repack the link store and re-exchange compressed halo faces \
           after every gauge update (smearing, HMC step) — the packed \
           stream is a snapshot, not a view"
        (Printf.sprintf
           "compressed halo was packed at gauge epoch %d but the field is \
            at epoch %d: ghost links decode to mutated-away values — the \
            gauge twin of the stale-halo spinor race"
           p.halo_epoch p.gauge_epoch);
    ]
  else []

(* Direct gauge audit for RECON001: measure the field's worst
   unitarity violation against the codec's documented tolerance. *)
let verify_gauge ~recon gauge =
  let v = Lattice.Gauge.max_unitarity_violation gauge in
  check_unitarity
    {
      kernel = "gauge_audit";
      recon;
      max_violation = v;
      gauge_epoch = 0;
      halo_epoch = 0;
      halo_compressed = false;
    }

let verify_plan p = check_unitarity p @ check_halo p
let verify_plans ps = List.concat_map verify_plan ps
