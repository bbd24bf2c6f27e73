(* Benchmark harness: regenerates every table and figure of the paper
   (see DESIGN.md's experiment index) plus ablations and operator
   micro-benchmarks.

   Usage:
     dune exec bench/main.exe                 # every experiment, default sizes
     dune exec bench/main.exe -- fig5 fig6    # a subset
     dune exec bench/main.exe -- --full       # larger sweeps / scales
     dune exec bench/main.exe -- --list       # list experiment names *)

let experiments ~full =
  [
    ("fig1", "Figure 1: Join Graph + tail of query Q", fun () -> Exp_fig1.run ());
    ("fig2", "Figure 2: chain sampling illustration", fun () -> Exp_fig2.run ());
    ("table2", "Figure 3 + Table 2: ROX on XMark Q1/Qm1", fun () -> Exp_table2.run ());
    ("fig4", "Figure 4: DBLP Join Graph", fun () -> Exp_fig4.run ());
    ("table3", "Table 3: document characteristics", fun () -> Exp_table3.run ~full ());
    ("fig5", "Figure 5: join order vs intermediate sizes", fun () -> Exp_fig5.run ~full ());
    ("fig6", "Figure 6: ROX vs plan classes", fun () -> Exp_fig6.run ~full ());
    ("fig7", "Figure 7: scaling document sizes", fun () -> Exp_fig7.run ~full ());
    ("fig8", "Figure 8: sample size vs overhead", fun () -> Exp_fig8.run ~full ());
    ("ablate", "Ablations of ROX design choices", fun () -> Exp_ablation.run ());
    ("telemetry", "Telemetry span/metric overhead on the fig5 workload", fun () -> Exp_telemetry.run ~full ());
    ("recorder", "Flight-recorder overhead (alias: the telemetry experiment's recorder arm)", fun () -> Exp_telemetry.run ~full ());
    ("serve", "Serving front-end: saturation, open-loop latency, socketpair session", fun () -> Exp_serve.run ());
    ("bechamel", "Operator kernel micro-benchmarks", fun () -> Exp_bechamel.run ());
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let args = List.filter (fun a -> a <> "--full" && a <> "--" ) args in
  let exps = experiments ~full in
  if List.mem "--list" args then begin
    List.iter (fun (name, descr, _) -> Printf.printf "%-10s %s\n" name descr) exps;
    exit 0
  end;
  let selected =
    match args with
    | [] -> exps
    | names ->
      List.map
        (fun name ->
          match List.find_opt (fun (n, _, _) -> n = name) exps with
          | Some e -> e
          | None ->
            Printf.eprintf "unknown experiment %S (use --list)\n" name;
            exit 2)
        names
  in
  let t0 = Unix.gettimeofday () in
  List.iter (fun (_, _, run) -> run ()) selected;
  Printf.printf "\n== all selected experiments done in %.1fs ==\n"
    (Unix.gettimeofday () -. t0)
