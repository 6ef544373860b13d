(* Helper process for test_store's two-process lock race.

   Usage: lock_holder.exe DIR RUNS CHUNK_SIZE KEY=VALUE...

   Opens a session on the record the configuration pairs address, writes
   one byte to stdout — 'k' if the session opened, 'e' if not — and then
   holds the session until it is killed.  A separate executable rather
   than a fork: OCaml 5 refuses [Unix.fork] once any domain has been
   spawned, and earlier test groups spawn domains on multi-core hosts. *)

module Store = Repro_mbpta.Store

let () =
  match Array.to_list Sys.argv with
  | _ :: dir :: runs :: chunk_size :: pairs ->
      let config =
        List.map
          (fun p ->
            match String.index_opt p '=' with
            | Some i -> (String.sub p 0 i, String.sub p (i + 1) (String.length p - i - 1))
            | None -> failwith ("lock_holder: expected KEY=VALUE, got " ^ p))
          pairs
      in
      let chunk_size = int_of_string chunk_size in
      let key = Store.key ~chunk_size config in
      let verdict =
        match
          Store.open_session ~chunk_size (Store.open_root ~dir) ~key ~config
            ~runs:(int_of_string runs) ~resilient:false
        with
        | Ok _ -> "k"
        | Error _ -> "e"
      in
      print_string verdict;
      flush stdout;
      Unix.sleep 60
  | _ ->
      prerr_endline "usage: lock_holder.exe DIR RUNS CHUNK_SIZE KEY=VALUE...";
      exit 2
