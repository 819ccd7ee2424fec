(** Floating-point complex numbers.

    The exact {!Dyadic} ring covers everything the synthesis pipeline needs;
    this module is the floating-point reference the exact arithmetic is
    checked against. *)

type t = { re : float; im : float }

val zero : t
val one : t
val i : t
val make : float -> float -> t
val of_float : float -> t
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val conj : t -> t
val scale : float -> t -> t

(** [norm_sq t] is [re^2 + im^2]. *)
val norm_sq : t -> float

(** [approx_equal ?tol a b] compares componentwise with absolute tolerance
    [tol] (default [1e-9]). *)
val approx_equal : ?tol:float -> t -> t -> bool

(** [of_dyadic d] converts an exact value to floating point. *)
val of_dyadic : Dyadic.t -> t

val pp : Format.formatter -> t -> unit
