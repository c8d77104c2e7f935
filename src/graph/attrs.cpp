#include "graph/attrs.h"

#include "common/check.h"

namespace lp::graph {

OpType op_from_name(const std::string& name) {
  static const OpType all[] = {
      OpType::kInput,    OpType::kConv,      OpType::kDWConv,
      OpType::kMatMul,   OpType::kMaxPool,   OpType::kAvgPool,
      OpType::kBiasAdd,  OpType::kAdd,       OpType::kBatchNorm,
      OpType::kRelu,     OpType::kSigmoid,   OpType::kTanh,
      OpType::kSoftmax,  OpType::kConcat,    OpType::kFlatten,
      OpType::kMakeTuple, OpType::kReturn};
  for (OpType op : all)
    if (op_name(op) == name) return op;
  LP_CHECK_MSG(false, "unknown operator name: " + name);
  return OpType::kInput;
}

std::string op_name(OpType op) {
  switch (op) {
    case OpType::kInput:
      return "Input";
    case OpType::kConv:
      return "Conv";
    case OpType::kDWConv:
      return "DWConv";
    case OpType::kMatMul:
      return "MatMul";
    case OpType::kMaxPool:
      return "MaxPool";
    case OpType::kAvgPool:
      return "AvgPool";
    case OpType::kBiasAdd:
      return "BiasAdd";
    case OpType::kAdd:
      return "Add";
    case OpType::kBatchNorm:
      return "BatchNorm";
    case OpType::kRelu:
      return "ReLU";
    case OpType::kSigmoid:
      return "Sigmoid";
    case OpType::kTanh:
      return "Tanh";
    case OpType::kSoftmax:
      return "Softmax";
    case OpType::kConcat:
      return "Concat";
    case OpType::kFlatten:
      return "Flatten";
    case OpType::kMakeTuple:
      return "MakeTuple";
    case OpType::kReturn:
      return "Return";
  }
  return "?";
}

}  // namespace lp::graph
