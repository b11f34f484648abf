(* [main.exe compare BASE NEW...]: judge sets of [run] outputs against
   the bounds in BENCHMARK.json.

   Each file holds one set: the output of one or more [main.exe run]
   invocations (any line that is a run's closing JSON object counts as
   one run; other lines are ignored). For every pairing of workload and
   metric it prints the median and quartiles of each set, the change
   and the verdict; pairings that read 0 in every run (layers the
   workload never enters) are left out. An end-to-end median worse than the base by more
   than its bound, an exact count that differs between any two runs, or
   a run with failed units is a breach, and the command exits 1. *)

type spec_metric = {
  name : string;
  unit_ : string;
  lower_better : bool;
  bound : float option;  (** end-to-end metrics only *)
}

let load_spec path : spec_metric list * spec_metric list =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Json.parse text with
  | None -> failwith (path ^ ": not JSON")
  | Some j ->
      let metrics key =
        List.map
          (fun m ->
            let get k = Json.to_str (Json.member k m) in
            {
              name = Option.get (get "name");
              unit_ = Option.get (get "unit");
              lower_better = get "better" = Some "lower";
              bound = Json.to_num (Json.member "bound" m);
            })
          (Json.to_list (Json.member key j))
      in
      (metrics "end_to_end", metrics "per_layer")

(* Every run in [path]: a list of (workload, report). *)
let load_runs path : (string * Json.t) list list =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match Json.parse line with
         | Some j when Json.member "workloads" j <> None ->
             Some
               (List.filter_map
                  (fun r ->
                    Option.map (fun w -> (w, r)) (Json.to_str (Json.member "workload" r)))
                  (Json.to_list (Json.member "workloads" j)))
         | _ -> None)

let value ~section ~name report =
  let ( >>= ) = Option.bind in
  Json.member section report >>= Json.member name >>= Json.member "value" |> Json.to_num

let values ~section ~name ~workload runs =
  Array.of_list
    (List.filter_map
       (fun run ->
         Option.bind (List.assoc_opt workload run) (value ~section ~name))
       runs)

let failed_runs ~workload runs =
  List.length
    (List.filter
       (fun run ->
         match List.assoc_opt workload run with
         | Some r -> Json.to_num (Json.member "failed" r) <> Some 0.
         | None -> false)
       runs)

let stats xs =
  let q1, q2, q3 = Stats.quartiles xs in
  Printf.sprintf "%12.4g [%.4g..%.4g]" q2 q1 q3

let compare_sets ~spec:(e2e, layers) ~base ~fresh : bool =
  let workloads =
    List.sort_uniq compare (List.concat_map (List.map fst) (base @ fresh))
  in
  let ok = ref true in
  Printf.printf "%-17s %-30s %-30s %-30s %8s %6s  %s\n" "workload" "metric"
    "base median [q1..q3]" "new median [q1..q3]" "delta" "bound" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun (section, (m : spec_metric)) ->
          let a = values ~section ~name:m.name ~workload base in
          let b = values ~section ~name:m.name ~workload fresh in
          let never_entered =
            Array.length a > 0 && Array.length b > 0
            && Array.for_all (fun x -> x = 0.) (Array.append a b)
          in
          if not never_entered then begin
            let ma = Stats.median a and mb = Stats.median b in
            let delta = Stats.ratio (mb -. ma) ma in
            let worse = if m.lower_better then delta else -.delta in
            let verdict =
              if Array.length a = 0 || Array.length b = 0 then "MISSING"
              else if Catalogue.is_exact m.name then
                if Array.for_all (fun x -> x = a.(0)) (Array.append a b) then "exact"
                else "MISMATCH"
              else
                match m.bound with
                | None -> "-"
                | Some bound -> if worse <= bound then "ok" else "REGRESSED"
            in
            if verdict = "MISSING" || verdict = "MISMATCH" || verdict = "REGRESSED"
            then ok := false;
            Printf.printf "%-17s %-30s %-30s %-30s %+7.2f%% %6s  %s\n" workload m.name
              (stats a) (stats b) (delta *. 100.)
              (match m.bound with
              | Some b -> Printf.sprintf "%g%%" (b *. 100.)
              | None -> "")
              verdict
          end)
        (List.map (fun m -> ("end_to_end", m)) e2e
        @ List.map (fun m -> ("per_layer", m)) layers);
      let fa = failed_runs ~workload base and fb = failed_runs ~workload fresh in
      if fa + fb > 0 then begin
        ok := false;
        Printf.printf "%-17s runs with failed units: base %d, new %d  FAILED\n" workload
          fa fb
      end)
    workloads;
  !ok

let main ~spec_path files =
  match files with
  | base :: (_ :: _ as others) ->
      let spec = load_spec spec_path in
      let base_runs = load_runs base in
      let all_ok =
        List.fold_left
          (fun acc f ->
            Printf.printf "\n== %s (%d runs) vs %s (%d runs)\n" base
              (List.length base_runs) f
              (List.length (load_runs f));
            compare_sets ~spec ~base:base_runs ~fresh:(load_runs f) && acc)
          true others
      in
      Printf.printf "\n%s\n" (if all_ok then "compare: ok" else "compare: BREACH");
      exit (if all_ok then 0 else 1)
  | _ ->
      prerr_endline "usage: main.exe compare [--spec BENCHMARK.json] BASE NEW...";
      exit 2
