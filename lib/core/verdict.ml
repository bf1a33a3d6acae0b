type unknown_reason =
  | Timeout
  | Symbol_budget
  | Numerical_fault
  | Unbounded
  | Imprecise
  | Worker_killed
  | Worker_crashed
  | Overloaded
  | Quarantined

type t = Certified | Falsified | Unknown of unknown_reason

exception Abort of unknown_reason

let all_reasons =
  [
    Timeout;
    Symbol_budget;
    Numerical_fault;
    Unbounded;
    Imprecise;
    Worker_killed;
    Worker_crashed;
    Overloaded;
    Quarantined;
  ]

let reason_name = function
  | Timeout -> "timeout"
  | Symbol_budget -> "symbol-budget"
  | Numerical_fault -> "numerical-fault"
  | Unbounded -> "unbounded"
  | Imprecise -> "imprecise"
  | Worker_killed -> "worker-killed"
  | Worker_crashed -> "worker-crashed"
  | Overloaded -> "overloaded"
  | Quarantined -> "quarantined"

let to_string = function
  | Certified -> "certified"
  | Falsified -> "falsified"
  | Unknown r -> "unknown(" ^ reason_name r ^ ")"

let reason_of_string s =
  List.find_opt (fun r -> reason_name r = s) all_reasons

let of_string_res = function
  | "certified" -> Ok Certified
  | "falsified" -> Ok Falsified
  | s ->
      let n = String.length s in
      if n > 9 && String.sub s 0 8 = "unknown(" && s.[n - 1] = ')' then begin
        let reason = String.sub s 8 (n - 9) in
        match reason_of_string reason with
        | Some r -> Ok (Unknown r)
        | None ->
            Error
              (Printf.sprintf
                 "unknown verdict reason %S (expected one of: %s)" reason
                 (String.concat ", " (List.map reason_name all_reasons)))
      end
      else
        Error
          (Printf.sprintf
             "bad verdict %S (expected \"certified\", \"falsified\" or \
              \"unknown(REASON)\")"
             s)

let is_fault = function
  | Unknown
      ( Timeout | Symbol_budget | Numerical_fault | Unbounded | Worker_killed
      | Worker_crashed | Overloaded | Quarantined ) ->
      true
  | Certified | Falsified | Unknown Imprecise -> false
let equal (a : t) (b : t) = a = b
