type rung = Cdcl | Explicit

let rung_name = function Cdcl -> "cdcl" | Explicit -> "explicit"

(* Only the CDCL rung has a breaker. The explicit rung's verdict is
   computed for every reply's exhaustive column anyway, so skipping it
   would save no work — it would only turn a decided answer into an
   [Undecided "degraded: …"] one. *)
type t = { cdcl : Breaker.t }

let make ?trip_after ?backoff ?(seed = 0) () =
  { cdcl = Breaker.make ?trip_after ?backoff ~seed ~key:(rung_name Cdcl) () }

let breaker t = t.cdcl

let guard t = function Cdcl -> Some t.cdcl | Explicit -> None

type answer = {
  verdict : Core.Experiments.sweep_verdict;
  rung : string;
  degraded : bool;  (* answered below the top admitted rung *)
  trail : (string * string) list;
}

let cancelled = function
  | Core.Experiments.Undecided "cancelled" -> true
  | _ -> false

let decide ?(now = Unix.gettimeofday) t rungs =
  let trail = ref [] in
  let note rung what = trail := (rung_name rung, what) :: !trail in
  let finish verdict rung_label ~degraded =
    { verdict; rung = rung_label; degraded; trail = List.rev !trail }
  in
  let rec walk degraded = function
    | [] ->
        finish
          (Core.Experiments.Undecided
             ("degraded: "
             ^ String.concat "; "
                 (List.rev_map (fun (r, w) -> r ^ "=" ^ w) !trail)))
          "none" ~degraded:true
    | (rung, run) :: rest ->
        let b = guard t rung in
        let admitted =
          match b with None -> true | Some b -> Breaker.admit b ~now:(now ())
        in
        if not admitted then begin
          note rung "open";
          walk true rest
        end
        else begin
          match (run () : Core.Experiments.sweep_verdict) with
          | Core.Experiments.Undecided _ as v when cancelled v ->
              (* a drain or request-deadline cancellation says nothing
                 about the backend's health: no breaker transition, and
                 no point trying cheaper rungs — the request is out of
                 time. The probe slot must still be released: if this
                 admit was the half-open probe, leaving [probing] set
                 would wedge the breaker open forever. *)
              Option.iter Breaker.cancel b;
              note rung "cancelled";
              finish v "none" ~degraded
          | Core.Experiments.Undecided reason ->
              Option.iter (fun b -> Breaker.timeout b ~now:(now ())) b;
              note rung reason;
              walk true rest
          | v ->
              Option.iter Breaker.success b;
              note rung "decided";
              finish v (rung_name rung) ~degraded
        end
  in
  walk false rungs

(* ---- the standard consensus rungs -------------------------------- *)

let consensus_rungs ?stop ~budget_for ~shared ~policy ~exhaustive () =
  let cdcl () =
    (* the cached translation on this worker domain's warm session:
       service workers are long-lived, so learnt clauses amortize across
       every request that hits the same (scope, target) *)
    Core.Experiments.cell_sat_verdict ?stop ~budget:(budget_for Cdcl) shared
      policy
  in
  [ (Cdcl, cdcl); (Explicit, exhaustive) ]

let check_consensus ?now ?stop ~budget_for ~shared ~policy ~exhaustive t =
  decide ?now t
    (consensus_rungs ?stop ~budget_for ~shared ~policy ~exhaustive ())
