// Umbrella header for the stsyn library: automated addition of (weak and
// strong) convergence to non-stabilizing network protocols, after
// "A Lightweight Method for Automated Design of Convergence" (IPDPS 2011).
//
// Typical use:
//
//   #include "stsyn.hpp"
//   using namespace stsyn;
//
//   protocol::Protocol p = casestudies::tokenRing(4, 3);
//   symbolic::Encoding enc(p);
//   symbolic::SymbolicProtocol sp(enc);
//
//   core::StrongOptions opt;
//   opt.schedule = core::rotatedSchedule(4, 1);      // (P1,P2,P3,P0)
//   core::StrongResult r = core::addStrongConvergence(sp, opt);
//
//   verify::Report rep = verify::check(sp, r.relation);   // re-verify
//   auto actions = extraction::extractAllActions(sp, r.addedPerProcess);
#pragma once

#include "analysis/lint.hpp"             // IWYU pragma: export
#include "casestudies/coloring.hpp"      // IWYU pragma: export
#include "casestudies/matching.hpp"      // IWYU pragma: export
#include "casestudies/token_ring.hpp"    // IWYU pragma: export
#include "casestudies/two_ring.hpp"      // IWYU pragma: export
#include "core/diagnose.hpp"             // IWYU pragma: export
#include "core/heuristic.hpp"            // IWYU pragma: export
#include "core/lightweight.hpp"          // IWYU pragma: export
#include "core/portfolio.hpp"            // IWYU pragma: export
#include "core/ranks.hpp"                // IWYU pragma: export
#include "core/schedule.hpp"             // IWYU pragma: export
#include "core/weak.hpp"                 // IWYU pragma: export
#include "explicitstate/local_correct.hpp"  // IWYU pragma: export
#include "explicitstate/simulate.hpp"    // IWYU pragma: export
#include "explicitstate/symmetric.hpp"   // IWYU pragma: export
#include "explicitstate/synthesis.hpp"   // IWYU pragma: export
#include "explicitstate/verify.hpp"      // IWYU pragma: export
#include "extraction/actions.hpp"        // IWYU pragma: export
#include "extraction/export.hpp"         // IWYU pragma: export
#include "extraction/symmetry.hpp"       // IWYU pragma: export
#include "lang/parser.hpp"               // IWYU pragma: export
#include "lang/printer.hpp"              // IWYU pragma: export
#include "protocol/builder.hpp"          // IWYU pragma: export
#include "symbolic/decode.hpp"           // IWYU pragma: export
#include "verify/counterexample.hpp"     // IWYU pragma: export
#include "verify/verify.hpp"             // IWYU pragma: export
