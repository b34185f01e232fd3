// Bench-side helpers: the HAN stack every figure runs on
// (core::HanWorld, han/han.hpp) and the configuration lists the
// task/model figures sweep.
#pragma once

#include <vector>

#include "han/han.hpp"

namespace han::bench {

/// The submodule/algorithm combinations Figs. 2-4 sweep: Libnbc (one
/// algorithm) and ADAPT's chain/binary/binomial, over SM intra.
inline std::vector<core::HanConfig> fig_configs(std::size_t seg) {
  std::vector<core::HanConfig> out;
  {
    core::HanConfig c;
    c.fs = seg;
    c.imod = "libnbc";
    c.smod = "sm";
    c.ibalg = coll::Algorithm::Binomial;
    c.iralg = coll::Algorithm::Binomial;
    out.push_back(c);
  }
  for (coll::Algorithm alg : {coll::Algorithm::Chain, coll::Algorithm::Binary,
                              coll::Algorithm::Binomial}) {
    core::HanConfig c;
    c.fs = seg;
    c.imod = "adapt";
    c.smod = "sm";
    c.ibalg = alg;
    c.iralg = alg;
    c.ibs = 16 << 10;
    c.irs = 16 << 10;
    out.push_back(c);
  }
  return out;
}

}  // namespace han::bench
