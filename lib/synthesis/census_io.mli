(** The census writer behind [census --save].

    The format is a plain text TSV, one function per line:

    {v cost <TAB> cycles <TAB> cascade v}

    e.g. [5<TAB>(7,8)<TAB>V+CB*FBA*V+CA*VCB*FBA].  Lines starting with
    [#] are comments. *)

(** [save ?note census path] writes every census member with its witness
    cascade, cost by cost and in func-key order within a cost, so the
    file is the same with and without [--quotient] and for any [jobs].
    A [# library: NAME] comment follows the format banner so a reader
    can tell which census universe produced the file.  [note], when
    given, is emitted as a further [#] comment — used to mark
    {e partial} censuses (interrupted or budget-limited runs) so a
    reader cannot mistake them for complete ones. *)
val save : ?note:string -> Fmcf.t -> string -> unit
