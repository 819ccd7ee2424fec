(** Persistence for census results.

    A census is expensive at depth; saving it lets downstream tools (cost
    lookups, library comparisons) reuse it.  The format is a plain text
    TSV, one function per line:

    {v cost <TAB> cycles <TAB> cascade v}

    e.g. [5<TAB>(7,8)<TAB>V+CB*FBA*V+CA*VCB*FBA].  Lines starting with
    [#] are comments.  Loading re-validates every entry: the cascade must
    be reasonable, have the recorded length, and restrict to the recorded
    function. *)

type entry = {
  func : Reversible.Revfun.t;
  cost : int;
  cascade : Cascade.t;
}

(** [save ?note census path] writes every census member with its witness
    cascade, cost by cost and in func-key order within a cost, so the
    file is the same with and without [--quotient] and for any [jobs].  A [# library: NAME] comment follows the format banner so a
    human (and {!load}) can tell which census universe produced the
    file.  [note], when given, is emitted as a further [#] comment —
    used to mark {e partial} censuses (interrupted or budget-limited
    runs) so a reader cannot mistake them for complete ones. *)
val save : ?note:string -> Fmcf.t -> string -> unit

(** [load library path] reads and re-validates a census file.
    @raise Checkpoint.Mismatch when the file's [# library:] header names
    a different library than [library] (files without the header are
    validated structurally only);
    @raise Invalid_argument on malformed or inconsistent entries (with
    the offending line number). *)
val load : Library.t -> string -> entry list

(** [lookup entries target] finds a target's recorded cost and cascade. *)
val lookup : entry list -> Reversible.Revfun.t -> entry option
