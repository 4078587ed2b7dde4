//===- support/StringUtils.cpp --------------------------------------------===//

#include "support/StringUtils.h"

#include <cctype>
#include <cstdio>

using namespace lcdfg;

std::string_view lcdfg::trim(std::string_view S) {
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.front())))
    S.remove_prefix(1);
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.back())))
    S.remove_suffix(1);
  return S;
}

std::vector<std::string> lcdfg::split(std::string_view S, char Sep) {
  std::vector<std::string> Parts;
  std::size_t Start = 0;
  for (std::size_t I = 0; I <= S.size(); ++I) {
    if (I == S.size() || S[I] == Sep) {
      Parts.emplace_back(trim(S.substr(Start, I - Start)));
      Start = I + 1;
    }
  }
  return Parts;
}

std::vector<std::string> lcdfg::splitTopLevel(std::string_view S, char Sep) {
  std::vector<std::string> Parts;
  int Depth = 0;
  std::size_t Start = 0;
  for (std::size_t I = 0; I <= S.size(); ++I) {
    if (I == S.size() || (S[I] == Sep && Depth == 0)) {
      std::string_view Piece = trim(S.substr(Start, I - Start));
      if (!Piece.empty())
        Parts.emplace_back(Piece);
      Start = I + 1;
      continue;
    }
    char C = S[I];
    if (C == '(' || C == '{' || C == '[')
      ++Depth;
    else if (C == ')' || C == '}' || C == ']')
      --Depth;
  }
  return Parts;
}

bool lcdfg::startsWith(std::string_view S, std::string_view Prefix) {
  return S.substr(0, Prefix.size()) == Prefix;
}

bool lcdfg::consumePrefix(std::string_view &S, std::string_view Prefix) {
  std::string_view T = trim(S);
  if (!startsWith(T, Prefix))
    return false;
  S = T.substr(Prefix.size());
  return true;
}

std::string lcdfg::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        Out.push_back(C);
      }
    }
  }
  return Out;
}
