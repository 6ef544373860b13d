type co_runner = Idle | Memory_hog of float

let core_count = 4

type t = { core0 : Core_sim.t }

let create ~config ~seed ~co_runners =
  if List.length co_runners > core_count - 1 then
    invalid_arg "Soc.create: at most 3 co-runners";
  let contenders =
    List.filter_map
      (fun c ->
        match c with
        | Idle -> None
        | Memory_hog p ->
            if p < 0. || p > 1. then invalid_arg "Soc.create: pressure out of [0,1]";
            Some p)
      co_runners
  in
  { core0 = Core_sim.create ~contenders ~config ~seed () }

let analyzed_core t = t.core0
