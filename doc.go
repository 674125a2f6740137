// Package ctdvs is a from-scratch Go reproduction of Xie, Martonosi and
// Malik, "Compile-Time Dynamic Voltage Scaling Settings: Opportunities and
// Limits" (PLDI 2003): an analytical model bounding the energy savings of
// compile-time intra-program DVS, and a profile-driven MILP optimizer that
// places mode-set instructions on control-flow edges, together with every
// substrate the evaluation needs (a cycle-level CPU/cache/power simulator, a
// simplex LP solver and branch-and-bound MILP solver, a mini-IR with a
// synthetic MediaBench workload suite, and an experiment harness that
// regenerates every table and figure of the paper).
//
// See README.md for a tour, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for recorded paper-versus-measured
// results. cmd/dvs-bench regenerates and prints each table and figure.
package ctdvs
