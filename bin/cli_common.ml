(* Shared CLI plumbing for the substrate tools (substrate_extract,
   substrate_apply): the typed problem configuration with its cmdliner
   terms, the solver escalation stacks, consistent exit codes, and the
   deterministic probe-digest machinery both binaries use to prove that a
   served artifact applies bit-identically to the representation that was
   extracted. *)

module Blackbox = Substrate.Blackbox
module Layout = Geometry.Layout
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Exit codes, shared across the tools so scripts and CI can dispatch on
   them: 0 success, 1 user error, 2 operational failure — a black-box
   solve failed during extraction, or an operator artifact / shard
   manifest was rejected (missing, torn, corrupt, or wrong version).
   cmdliner reserves 123-125. *)

let exit_ok = 0
let exit_user_error = 1
let exit_solve_failed = 2
let exit_bad_artifact = 2

(* ------------------------------------------------------------------ *)
(* Problem configuration: a Scenario.t, resolved either from
   --scenario NAME|FILE or from the legacy --layout/--per-side/--seed
   aliases (which route through the same registry). *)

type problem = Scenario.t

let layout_names = [ "regular"; "irregular"; "alternating"; "mixed"; "large" ]

let layout_of_problem = Scenario.layout

let scenario_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario" ] ~docv:"NAME|FILE"
        ~doc:
          "Problem definition: a registry name (see --list-scenarios) or a .scn config file. \
           --per-side, --seed, --solver and --panels override the scenario's knobs; --layout is \
           the legacy alias for the five registry layouts and is mutually exclusive with \
           --scenario.")

let layout_arg =
  Arg.(
    value
    & opt (some (enum (List.map (fun n -> (n, n)) layout_names))) None
    & info [ "layout"; "l" ] ~docv:"NAME"
        ~doc:
          "Contact layout: regular, irregular, alternating, mixed, large (legacy alias for \
           --scenario NAME).")

let per_side_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "per-side" ] ~docv:"N" ~doc:"Cells per side of the layout grid (default 16).")

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed for generated layouts (default 7).")

let panels_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "panels" ] ~docv:"P"
        ~doc:"Surface panels per side for the eigenfunction solver (default 64).")

let solver_arg =
  Arg.(
    value
    & opt (some (enum [ ("eig", `Eig); ("fd", `Fd); ("fd-direct", `Fd_direct) ])) None
    & info [ "solver" ] ~docv:"S"
        ~doc:
          "Substrate solver: eig (eigenfunction/DCT), fd (finite difference, PCG), or fd-direct \
           (finite difference, sparse Cholesky). Default: the scenario's hint (eig for the \
           legacy layouts).")

(* Resolve the flags to a scenario, reporting config errors as data (a
   cmdliner term must not raise). *)
let resolve_problem scenario layout per_side seed solver panels : (problem, string) result =
  match
    match scenario with
    | Some spec ->
      if Option.is_some layout then
        invalid_arg "--scenario and --layout are mutually exclusive (the latter is a registry alias)";
      let t = Scenario.load spec in
      let t = match per_side with Some n -> Scenario.with_per_side t n | None -> t in
      let t = match seed with Some s -> Scenario.with_seed t s | None -> t in
      let t = match solver with Some k -> Scenario.with_solver t k | None -> t in
      let t = match panels with Some p -> Scenario.with_panels t p | None -> t in
      t
    | None ->
      Scenario.of_legacy
        ~layout:(Option.value layout ~default:"regular")
        ~per_side:(Option.value per_side ~default:16)
        ~seed:(Option.value seed ~default:7)
        ~solver:(Option.value solver ~default:`Eig)
        ~panels:(Option.value panels ~default:64)
  with
  | t -> Ok t
  | exception Invalid_argument msg -> Error msg
  | exception Sys_error msg -> Error msg
  | exception Scenario.Sexp.Error { file; line; col; message } ->
    Error (Scenario.Sexp.format_error ~file ~line ~col ~message)

let problem_term =
  Term.(
    const resolve_problem $ scenario_arg $ layout_arg $ per_side_arg $ seed_arg $ solver_arg
    $ panels_arg)

(* Unwrap a resolved problem, mapping config errors to exit code 1. *)
let with_problem problem_res f =
  match problem_res with
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    exit_user_error
  | Ok p -> f p

(* ------------------------------------------------------------------ *)
(* Parallelism. *)

(* ------------------------------------------------------------------ *)
(* Tracing. Both binaries expose the same two flags: --trace FILE writes
   Chrome trace_event JSON (about:tracing / ui.perfetto.dev) covering the
   pool, Krylov, black-box and extraction-phase spans; --trace-summary
   prints the aggregate span/distribution/counter table. Either flag turns
   recording on; without them the instrumentation stays on its disabled
   (single atomic load) path. Tracing never changes results: probe digests
   are bit-identical with tracing on or off, for every --jobs. *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans, counters and value distributions for the whole run and write them to \
           $(docv) as Chrome trace_event JSON (loadable in about:tracing or ui.perfetto.dev). \
           Results are bit-identical with or without tracing.")

let trace_summary_arg =
  Arg.(
    value & flag
    & info [ "trace-summary" ]
        ~doc:
          "Record traces and print an aggregate summary (per span: count, total, mean, max \
           seconds; plus distributions and counters) when the command finishes.")

let trace_setup ~trace ~trace_summary =
  if Option.is_some trace || trace_summary then Trace.set_enabled true

let trace_finish ~trace ~trace_summary =
  (match trace with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Trace.write_chrome oc);
    Printf.printf "wrote %s (%d trace events; load in about:tracing or ui.perfetto.dev)\n" path
      (Trace.event_count ()));
  if trace_summary then Format.printf "%a@?" Trace.pp_summary (Trace.summary ())

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Domains for batched applications (1 = sequential, 0 = auto: one less than the \
           recommended domain count). Results are bit-identical for every value.")

let resolve_jobs jobs = if jobs <= 0 then Parallel.Pool.default_jobs () else jobs

(* ------------------------------------------------------------------ *)
(* Solver construction: the scenario owns the escalation ladder. *)

let solver_stack = Scenario.solver_stack
let blackbox_of = Scenario.blackbox

(* The canonical CLI spelling of a problem, recorded in artifacts. *)
let problem_source ?(extra = "") p =
  Printf.sprintf "substrate_extract --scenario %s --solver %s%s" p.Scenario.name
    (Scenario.solver_name p.Scenario.solver) extra

(* ------------------------------------------------------------------ *)
(* Probe digests: the cross-process parity check.

   Both binaries generate the same deterministic Gaussian probe vectors
   (fixed seed), apply an operator to them, and hash the exact IEEE-754
   bit patterns of the responses. If substrate_extract's digest of the
   in-memory representation equals substrate_apply's digest of the loaded
   artifact — in a different process, at any --jobs — the round trip is
   bit-exact. *)

let default_probes = 5
let default_probe_seed = 1234

let probe_vectors ~n ~probes ~seed =
  let rng = La.Rng.create seed in
  (* Explicit loop: the draws must consume the generator in index order. *)
  let vs = Array.make probes [||] in
  for i = 0 to probes - 1 do
    vs.(i) <- La.Rng.gaussian_array rng n
  done;
  vs

(* Hash the responses' Codec encoding — exact bit patterns, lengths
   included — so two digests agree iff every response component is
   identical to the last bit. *)
let response_digest (responses : La.Vec.t array) =
  Digest.to_hex (Digest.string (Subcouple_op.Codec.(encode (fun b -> add_vectors b responses))))

(* The digest line from responses already in hand: substrate_serve's
   client hashes what came over the socket instead of applying locally,
   so equality with substrate_apply --digest proves socket transport is
   bit-exact too. *)
let probe_digest_line_of_responses ?(probes = default_probes) ?(seed = default_probe_seed) ~n
    responses =
  Printf.sprintf "probe digest: %s (%d probes, seed %d, n %d)" (response_digest responses) probes
    seed n

let probe_digest_line ?(probes = default_probes) ?(seed = default_probe_seed) ~jobs op =
  let n = Subcouple_op.n op in
  let responses = Subcouple_op.apply_batch ~jobs op (probe_vectors ~n ~probes ~seed) in
  probe_digest_line_of_responses ~probes ~seed ~n responses
