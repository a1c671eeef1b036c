(** QUDA-style run-time kernel autotuner: brute-force search through a
    candidate space on first encounter of a (kernel, signature) key,
    cached winner afterwards, with backup/restore hooks around trials
    of data-destructive kernels and tunecache-style persistence. *)

type entry = {
  kernel : string;
  signature : string;  (** problem shape: volume, precision, … *)
  winner : string;  (** label of the chosen launch configuration *)
  time_s : float;  (** measured time of the winner *)
  candidates_tried : int;
  tuned_at : float;  (** wall-clock, metadata only *)
}

type t

val create : ?repeats:int -> unit -> t
(** [repeats] timing repetitions per candidate (default 3). *)

type 'a candidate = { label : string; run : 'a }

val candidate : string -> 'a -> 'a candidate

val tune :
  ?backup:(unit -> unit) ->
  ?restore:(unit -> unit) ->
  t ->
  kernel:string ->
  signature:string ->
  (unit -> unit) candidate list ->
  string
(** Winning label ({!choose} over each candidate's repeat timings):
    measured on first encounter, cache hit after. A
    cached winner whose label no longer names a live candidate (a
    stale tunecache from before a variant-space change) is not served:
    the search re-runs and overwrites the entry.
    @raise Invalid_argument on an empty candidate list. *)

val choose : (string * float array) list -> string * float
(** [choose timed]: the winner among [(label, timing samples)] and its
    median time — the rule {!tune} applies. The first candidate is the
    baseline: it keeps the win unless a challenger's median beats its
    median by more than the baseline's own repeat spread (max − min of
    its samples); otherwise the fastest median wins.
    @raise Invalid_argument on an empty list. *)

val lookup : t -> kernel:string -> signature:string -> entry option
val entries : t -> entry list
val tune_count : t -> int
val hit_count : t -> int

val save : t -> string -> unit
(** Persist the cache (QUDA's tunecache file). *)

type load_error = { path : string; line : int; reason : string }
(** A malformed tunecache line: wrong field count or a non-numeric
    number. [line] is 1-based. *)

val load_error_to_string : load_error -> string
(** ["path:line: reason"]. *)

val load : t -> string -> (unit, load_error) result
(** Restore a cache written by {!save}. The whole file is parsed
    first: on a malformed line nothing is loaded.
    @raise Sys_error if the file cannot be read. *)
