(** Quantum-realized probabilistic state machines (paper Figure 3).

    A machine is a probabilistic combinational circuit in a feedback loop:
    some wires carry the state register (fed back after measurement), some
    carry external inputs, and some are observed as outputs.  Measuring
    the quaternary output pattern each clock makes the machine an exactly
    computable Markov chain whose transition probabilities are dyadic
    rationals. *)

type t

(** [make ~circuit ~state_wires ~input_wires ~obs_wires] assembles a
    machine.  Wire lists must be disjoint; wires not mentioned are fed 0
    every clock.
    @raise Invalid_argument on overlapping or out-of-range wires, or when
    [state_wires] is empty. *)
val make :
  circuit:Prob_circuit.t ->
  state_wires:int list ->
  input_wires:int list ->
  obs_wires:int list ->
  t

val circuit : t -> Prob_circuit.t

(** Wire assignments (fresh arrays). *)
val state_wires : t -> int array

val input_wires : t -> int array
val obs_wires : t -> int array

(** [output_pattern t ~input ~state] is the quaternary pattern the
    combinational circuit produces for one clock (register values
    assembled onto their wires, 0 elsewhere). *)
val output_pattern : t -> input:int -> state:int -> Mvl.Pattern.t

(** [num_states t] is [2^(number of state wires)]. *)
val num_states : t -> int

(** [num_inputs t] is [2^(number of input wires)]. *)
val num_inputs : t -> int

(** [num_obs t] is [2^(number of observation wires)]. *)
val num_obs : t -> int

(** [transition_row t ~input ~state] is the exact distribution over next
    states. *)
val transition_row : t -> input:int -> state:int -> Qsim.Prob.t array

(** [transition_matrix t ~input] is the row-stochastic transition matrix
    for a fixed input symbol. *)
val transition_matrix : t -> input:int -> Qsim.Prob.t array array

(** [step t ~input dist] evolves a state distribution one clock, exactly. *)
val step : t -> input:int -> Qsim.Prob.t array -> Qsim.Prob.t array

(** [run t ~inputs dist] folds {!step} over an input word. *)
val run : t -> inputs:int list -> Qsim.Prob.t array -> Qsim.Prob.t array
