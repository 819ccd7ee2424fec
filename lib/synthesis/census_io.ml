let save ?note census path =
  let out = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out out)
    (fun () ->
      Printf.fprintf out "# qsynth census: cost <TAB> cycles <TAB> cascade\n";
      let library = Search.library (Fmcf.search census) in
      Printf.fprintf out "# library: %s\n" (Library.name library);
      (match note with
      | Some n -> Printf.fprintf out "# %s\n" n
      | None -> ());
      (* Each level in func-key order (a member's image vector is its
         func_key), not in the order the search happened to visit it. *)
      List.iter
        (fun (cost, _) ->
          List.sort (fun (a : Fmcf.member) b -> String.compare a.image b.image)
            (Fmcf.members_at census ~cost)
          |> List.iter (fun (m : Fmcf.member) ->
                 let cascade = Fmcf.cascade_of_member census m in
                 Printf.fprintf out "%d\t%s\t%s\n" m.Fmcf.cost
                   (Format.asprintf "%a" Reversible.Revfun.pp m.Fmcf.func)
                   (Cascade.to_string cascade)))
        (Fmcf.counts census))
