type entry = {
  func : Reversible.Revfun.t;
  cost : int;
  cascade : Cascade.t;
}

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

let load library path =
  let qubits = Library.qubits library in
  let degree = 1 lsl qubits in
  let input = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in input)
    (fun () ->
      let entries = ref [] in
      let line_number = ref 0 in
      let fail msg =
        invalid_arg (Printf.sprintf "Census_io.load: line %d: %s" !line_number msg)
      in
      (try
         while true do
           let line = input_line input in
           incr line_number;
           let line = String.trim line in
           let library_prefix = "# library:" in
           if
             String.length line >= String.length library_prefix
             && String.sub line 0 (String.length library_prefix) = library_prefix
           then begin
             let file_lib =
               String.trim
                 (String.sub line
                    (String.length library_prefix)
                    (String.length line - String.length library_prefix))
             in
             if not (String.equal file_lib (Library.name library)) then
               raise
                 (Checkpoint.Mismatch
                    (Printf.sprintf
                       "census file %s was written for library %s, loading \
                        with library %s"
                       path file_lib (Library.name library)))
           end
           else if line <> "" && line.[0] <> '#' then begin
             match String.split_on_char '\t' line with
             | [ cost_str; cycles; cascade_str ] ->
                 let cost =
                   match int_of_string_opt cost_str with
                   | Some c when c >= 0 -> c
                   | _ -> fail "bad cost"
                 in
                 let func =
                   try
                     Reversible.Revfun.of_perm ~bits:qubits
                       (Permgroup.Cycles.of_string ~degree cycles)
                   with Invalid_argument msg -> fail msg
                 in
                 let cascade =
                   try Cascade.of_string ~qubits cascade_str
                   with Invalid_argument msg -> fail msg
                 in
                 if Cascade.cost cascade <> cost then fail "cost does not match cascade";
                 if not (Cascade.is_reasonable library cascade) then
                   fail "cascade violates the reasonable product";
                 (match Cascade.restriction library cascade with
                 | Some f when Reversible.Revfun.equal f func -> ()
                 | Some _ | None -> fail "cascade does not implement the function");
                 entries := { func; cost; cascade } :: !entries
             | _ -> fail "expected three tab-separated fields"
           end
         done
       with End_of_file -> ());
      List.rev !entries)

let lookup entries target =
  List.find_opt (fun e -> Reversible.Revfun.equal e.func target) entries
