// Self-tests of the benchmark itself: stream determinism and mix, run
// determinism, observer non-perturbation, output-check and budget-check
// mutations. Short runs; `ukbench selftest` exits non-zero on any failure.

#ifndef UKBENCH_SELFTEST_H_
#define UKBENCH_SELFTEST_H_

namespace ukbench {

int RunSelfTests();

}  // namespace ukbench

#endif  // UKBENCH_SELFTEST_H_
