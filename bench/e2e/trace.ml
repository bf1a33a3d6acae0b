(* In-memory spans recorded around the calls the benchmark makes into each
   layer, plus the op spans an [Interp.sink] reports from inside a
   propagation. Spans stay in memory while the workload runs and are
   written as JSON lines when it ends. A span's self time is its
   duration minus the part of it its children cover. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  query : int;  (** the query (or request) every span of one call shares *)
  name : string;
  start : float;
  stop : float;
  size : int;  (** op spans: the event's domain size (live ε symbols) *)
  density : float;  (** op spans: the event's coefficient density *)
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 1 }

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let record ?(size = 0) ?(density = 1.0) t ~id ~parent ~query name ~start ~stop =
  t.spans <- { id; parent; query; name; start; stop; size; density } :: t.spans

let add ?size ?density t ~parent ~query name ~start ~stop =
  let id = fresh t in
  record ?size ?density t ~id ~parent ~query name ~start ~stop;
  id

(* [span t ~parent ~query name f] times [f id], where [id] is the span's
   own id for children to hang under. *)
let span t ~parent ~query name f =
  let id = fresh t in
  let start = Unix.gettimeofday () in
  let r = f id in
  record t ~id ~parent ~query name ~start ~stop:(Unix.gettimeofday ());
  r

(* One op span per interpreter event, under [parent]. The event arrives
   when the op has finished, so its start is now minus its wall time. *)
let sink t ~parent ~query : Interp.sink =
 fun (e : Interp.event) ->
  let stop = Unix.gettimeofday () in
  ignore
    (add t ~parent ~query ("op." ^ e.Interp.kind) ~start:(stop -. e.Interp.wall_s) ~stop
       ~size:e.Interp.size ~density:e.Interp.density)

let spans t = List.rev t.spans

(* Move the children of [parent] that start at or after [from] under
   [into]. *)
let adopt t ~parent ~into ~from =
  t.spans <-
    List.map
      (fun s ->
        if s.parent = parent && s.id <> into && s.start >= from then { s with parent = into }
        else s)
      t.spans

(* Adopt spans recorded in another process (a forked worker): ids are
   renumbered past this recorder's and the foreign roots hang under
   [parent]. *)
let graft t ~parent foreign =
  let base = t.next - 1 in
  let top = ref 0 in
  List.iter
    (fun s ->
      top := max !top s.id;
      t.spans <-
        {
          s with
          id = s.id + base;
          parent = (if s.parent = 0 then parent else s.parent + base);
        }
        :: t.spans)
    foreign;
  t.next <- t.next + !top

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let iv =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, (ca, cb)) (a, b) ->
        if a > cb then (total +. (cb -. ca), (a, b)) else (total, (ca, Float.max cb b)))
      (0.0, (lo, lo))
      iv
  in
  total +. (snd last -. fst last)

let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

type row = { rname : string; count : int; total_s : float; self_s : float }

(* Per span name: how many, summed duration and summed self time, in
   order of first appearance. *)
let summary spans =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some r ->
          Hashtbl.replace tbl s.name
            {
              r with
              count = r.count + 1;
              total_s = r.total_s +. (s.stop -. s.start);
              self_s = r.self_s +. self;
            }
      | None ->
          order := s.name :: !order;
          Hashtbl.replace tbl s.name
            { rname = s.name; count = 1; total_s = s.stop -. s.start; self_s = self })
    (self_times spans);
  List.rev_map (Hashtbl.find tbl) !order

let pp_summary oc rows =
  Printf.fprintf oc "%-26s %8s %12s %12s\n" "span" "count" "total s" "self s";
  List.iter
    (fun r -> Printf.fprintf oc "%-26s %8d %12.4f %12.4f\n" r.rname r.count r.total_s r.self_s)
    rows

let write_jsonl path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"query\":%d,\"name\":%s,\"start\":%.6f,\"stop\":%.6f,\
         \"size\":%d,\"density\":%s}\n"
        s.id s.parent s.query (Json.quote s.name) s.start s.stop s.size
        (Json.num_lit s.density))
    spans;
  close_out oc
