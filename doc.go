// Package mlpart is a from-scratch Go implementation of the ML
// multilevel circuit partitioning algorithm of Alpert, Huang and
// Kahng ("Multilevel Circuit Partitioning", DAC 1997), together with
// every substrate the paper depends on:
//
//   - netlist hypergraphs with CSR storage, clusterings, induced
//     coarsenings, projections and cut metrics;
//   - Fiduccia–Mattheyses bipartitioning with LIFO/FIFO/random gain
//     buckets, the CLIP engine of Dutt & Deng, Krishnamurthy-style
//     lookahead, boundary refinement and early pass termination;
//   - the Match connectivity-driven coarsening algorithm with its
//     matching-ratio control of hierarchy depth;
//   - Sanchis-style multi-way FM for quadrisection, with net-cut and
//     sum-of-degrees gains and pre-assigned pads;
//   - a Large-Step Markov Chain baseline and a GORDIAN-style
//     quadratic-placement quadrisection baseline;
//   - a deterministic synthetic benchmark generator standing in for
//     the 23 ACM/SIGDA circuits of the paper's Table I; and
//   - an experiment harness regenerating every table and figure of
//     the paper's evaluation section.
//
// The one-call entry point is PartitionCtx, which runs the multilevel
// algorithm for k = 2 (bipartitioning) or k = 4 (quadrisection);
// Bipartition, BipartitionCtx, Quadrisect and QuadrisectCtx are
// wrappers that fix k. Each call runs on workspace bundles borrowed
// from a process-wide pool, and Session.PartitionCtx runs it on a
// bundle the Session keeps:
//
//	h := mlpart.NewBuilder(4).
//		AddNet(0, 1).AddNet(1, 2).AddNet(2, 3).
//		MustBuild()
//	p, info, err := mlpart.Bipartition(h, mlpart.Options{Seed: 1})
//	fmt.Println(info.Cut, p.Part)
//
// Finer control (engine choice, matching ratio, bucket order,
// lookahead, multi-start) is available through the re-exported
// configuration types; see MLConfig, FMConfig, KwayConfig.
package mlpart
