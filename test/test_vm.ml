(* Substrate tests: RNG, clock, signal sets, cost model. *)

open Tu
module Rng = Vm.Rng
module Clock = Vm.Clock
module Cost_model = Vm.Cost_model

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check bool "different seeds diverge" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_bounds () =
  let r = Rng.create 99 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_copy () =
  let a = Rng.create 5 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues stream" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_split () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  check bool "split independent" true (Rng.bits64 a <> Rng.bits64 b)

let test_rng_bool_balance () =
  let r = Rng.create 3 in
  let heads = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bool r then incr heads
  done;
  check bool "roughly balanced" true (!heads > 4_500 && !heads < 5_500)

let test_rng_float () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    check bool "float in range" true (v >= 0.0 && v < 2.5)
  done

let test_clock_basic () =
  let c = Clock.create () in
  check int "starts at zero" 0 (Clock.now c);
  Clock.advance c 10;
  check int "advance" 10 (Clock.now c);
  Clock.advance c 0;
  check int "advance 0" 10 (Clock.now c)

let test_clock_advance_to () =
  let c = Clock.create () in
  Clock.advance_to c 100;
  check int "forward" 100 (Clock.now c);
  Clock.advance_to c 50;
  check int "never backwards" 100 (Clock.now c)

let test_clock_units () =
  check int "us->ns" 25 (Clock.ns_of_us 0.025);
  check (Alcotest.float 1e-9) "ns->us" 1.5 (Clock.us_of_ns 1500)

let test_cost_profiles () =
  let ipx = Cost_model.sparc_ipx and one = Cost_model.sparc_1plus in
  check bool "1+ slower per insn" true (one.insn_ns > ipx.insn_ns);
  check bool "1+ slower traps" true (one.kernel_trap_ns > ipx.kernel_trap_ns);
  (* enter+exit Pthreads kernel must be far below a UNIX kernel call *)
  check bool "library kernel cheap" true
    (Cost_model.insns ipx 16 * 10 < ipx.kernel_trap_ns)

let test_cost_insns_linear () =
  let p = Cost_model.sparc_ipx in
  check int "linear" (3 * Cost_model.insns p 7) (Cost_model.insns p 21)

(* The Unix backend's clock is synchronized from [Real_clock]: a wall
   clock stepping backward would freeze it (Clock.advance_to never goes
   back) and stall every timed wait, so the reading must be monotonic. *)
let test_real_clock_monotonic () =
  let prev = ref (Vm.Real_clock.now_ns ()) in
  for _ = 1 to 100_000 do
    let t = Vm.Real_clock.now_ns () in
    if t < !prev then Alcotest.failf "clock went back: %d after %d" t !prev;
    prev := t
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Vm.Real_clock.now_ns () : int)
  done;
  check (Alcotest.float 0.) "reads allocate nothing" 0. (Gc.minor_words () -. before)

let suite =
  [
    ( "vm.rng",
      [
        tc "determinism" test_rng_determinism;
        tc "seed sensitivity" test_rng_seed_sensitivity;
        tc "int bounds" test_rng_bounds;
        tc "copy" test_rng_copy;
        tc "split" test_rng_split;
        tc "bool balance" test_rng_bool_balance;
        tc "float bounds" test_rng_float;
      ] );
    ( "vm.clock",
      [
        tc "basic" test_clock_basic;
        tc "advance_to" test_clock_advance_to;
        tc "units" test_clock_units;
        tc "real clock never decreases" test_real_clock_monotonic;
      ] );
    ( "vm.cost_model",
      [ tc "profiles" test_cost_profiles; tc "insns linear" test_cost_insns_linear ]
    );
  ]
