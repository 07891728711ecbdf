-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'median3'
-- data path: 16 nodes (6 soft, 10 hard), 1 pipeline stages
-- netlist: 21 cells, 0 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_node1 is
  port (
    A0 : in signed(11 downto 0);
    A1 : in signed(11 downto 0);
    t3_out : out unsigned(0 downto 0)
  );
end entity median3_dp_node1;

architecture rtl of median3_dp_node1 is
  signal t3 : unsigned(0 downto 0);
begin
  t3 <= "1" when resize(A0, 13) > resize(A1, 13) else "0";
  t3_out <= t3;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_node2 is
  port (
    A0 : in signed(11 downto 0);
    A2 : in signed(11 downto 0);
    t4_out : out unsigned(0 downto 0)
  );
end entity median3_dp_node2;

architecture rtl of median3_dp_node2 is
  signal t4 : unsigned(0 downto 0);
begin
  t4 <= "1" when resize(A0, 13) > resize(A2, 13) else "0";
  t4_out <= t4;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_node3 is
  port (
    A1 : in signed(11 downto 0);
    A2 : in signed(11 downto 0);
    t5_out : out unsigned(0 downto 0)
  );
end entity median3_dp_node3;

architecture rtl of median3_dp_node3 is
  signal t5 : unsigned(0 downto 0);
begin
  t5 <= "1" when resize(A1, 13) > resize(A2, 13) else "0";
  t5_out <= t5;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_mux_bb15 is
  port (
    n3_A2_pipe : in signed(11 downto 0);
    n4_A1_pipe : in signed(11 downto 0);
    n16_pipe : in unsigned(0 downto 0);
    m_9_out : out signed(11 downto 0)
  );
end entity median3_dp_mux_bb15;

architecture rtl of median3_dp_mux_bb15 is
  signal m_9 : signed(11 downto 0);
begin
  m_9 <= n3_A2_pipe when n16_pipe /= 0 else n4_A1_pipe;
  m_9_out <= m_9;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_mux_bb12 is
  port (
    n5_A0_pipe : in signed(11 downto 0);
    m_9 : in signed(11 downto 0);
    n19_pipe : in unsigned(0 downto 0);
    m_10_out : out signed(11 downto 0)
  );
end entity median3_dp_mux_bb12;

architecture rtl of median3_dp_mux_bb12 is
  signal m_10 : signed(11 downto 0);
begin
  m_10 <= n5_A0_pipe when n19_pipe /= 0 else m_9;
  m_10_out <= m_10;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_node6 is
  port (
    A1 : in signed(11 downto 0);
    A2 : in signed(11 downto 0);
    t8_out : out unsigned(0 downto 0)
  );
end entity median3_dp_node6;

architecture rtl of median3_dp_node6 is
  signal t8 : unsigned(0 downto 0);
begin
  t8 <= "1" when resize(A1, 13) > resize(A2, 13) else "0";
  t8_out <= t8;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_node7 is
  port (
    A0 : in signed(11 downto 0);
    A2 : in signed(11 downto 0);
    t9_out : out unsigned(0 downto 0)
  );
end entity median3_dp_node7;

architecture rtl of median3_dp_node7 is
  signal t9 : unsigned(0 downto 0);
begin
  t9 <= "1" when resize(A0, 13) > resize(A2, 13) else "0";
  t9_out <= t9;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_mux_bb9 is
  port (
    n6_A2_pipe : in signed(11 downto 0);
    n7_A0_pipe : in signed(11 downto 0);
    n10_pipe : in unsigned(0 downto 0);
    m_4_out : out signed(11 downto 0)
  );
end entity median3_dp_mux_bb9;

architecture rtl of median3_dp_mux_bb9 is
  signal m_4 : signed(11 downto 0);
begin
  m_4 <= n6_A2_pipe when n10_pipe /= 0 else n7_A0_pipe;
  m_4_out <= m_4;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_mux_bb6 is
  port (
    n8_A1_pipe : in signed(11 downto 0);
    m_4 : in signed(11 downto 0);
    n13_pipe : in unsigned(0 downto 0);
    m_5_out : out signed(11 downto 0)
  );
end entity median3_dp_mux_bb6;

architecture rtl of median3_dp_mux_bb6 is
  signal m_5 : signed(11 downto 0);
begin
  m_5 <= n8_A1_pipe when n13_pipe /= 0 else m_4;
  m_5_out <= m_5;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_mux_bb3 is
  port (
    m_5 : in signed(11 downto 0);
    m_10 : in signed(11 downto 0);
    n22_pipe : in unsigned(0 downto 0);
    m_11_out : out signed(11 downto 0)
  );
end entity median3_dp_mux_bb3;

architecture rtl of median3_dp_mux_bb3 is
  signal m_11 : signed(11 downto 0);
begin
  m_11 <= m_5 when n22_pipe /= 0 else m_10;
  m_11_out <= m_11;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_node11 is
end entity median3_dp_node11;

architecture rtl of median3_dp_node11 is
begin
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_pipe_bb3 is
  port (
    t3 : in unsigned(0 downto 0);
    n22_pipe_out : out unsigned(0 downto 0)
  );
end entity median3_dp_pipe_bb3;

architecture rtl of median3_dp_pipe_bb3 is
  signal n22_pipe : unsigned(0 downto 0);
begin
  n22_pipe <= t3;
  n22_pipe_out <= n22_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_pipe_bb6 is
  port (
    A1 : in signed(11 downto 0);
    t8 : in unsigned(0 downto 0);
    n8_A1_pipe_out : out signed(11 downto 0);
    n13_pipe_out : out unsigned(0 downto 0)
  );
end entity median3_dp_pipe_bb6;

architecture rtl of median3_dp_pipe_bb6 is
  signal n8_A1_pipe : signed(11 downto 0);
  signal n13_pipe : unsigned(0 downto 0);
begin
  n8_A1_pipe <= A1;
  n13_pipe <= t8;
  n8_A1_pipe_out <= n8_A1_pipe;
  n13_pipe_out <= n13_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_pipe_bb9 is
  port (
    A0 : in signed(11 downto 0);
    A2 : in signed(11 downto 0);
    t9 : in unsigned(0 downto 0);
    n6_A2_pipe_out : out signed(11 downto 0);
    n7_A0_pipe_out : out signed(11 downto 0);
    n10_pipe_out : out unsigned(0 downto 0)
  );
end entity median3_dp_pipe_bb9;

architecture rtl of median3_dp_pipe_bb9 is
  signal n6_A2_pipe : signed(11 downto 0);
  signal n7_A0_pipe : signed(11 downto 0);
  signal n10_pipe : unsigned(0 downto 0);
begin
  n6_A2_pipe <= A2;
  n7_A0_pipe <= A0;
  n10_pipe <= t9;
  n6_A2_pipe_out <= n6_A2_pipe;
  n7_A0_pipe_out <= n7_A0_pipe;
  n10_pipe_out <= n10_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_pipe_bb12 is
  port (
    A0 : in signed(11 downto 0);
    t4 : in unsigned(0 downto 0);
    n5_A0_pipe_out : out signed(11 downto 0);
    n19_pipe_out : out unsigned(0 downto 0)
  );
end entity median3_dp_pipe_bb12;

architecture rtl of median3_dp_pipe_bb12 is
  signal n5_A0_pipe : signed(11 downto 0);
  signal n19_pipe : unsigned(0 downto 0);
begin
  n5_A0_pipe <= A0;
  n19_pipe <= t4;
  n5_A0_pipe_out <= n5_A0_pipe;
  n19_pipe_out <= n19_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp_pipe_bb15 is
  port (
    A1 : in signed(11 downto 0);
    A2 : in signed(11 downto 0);
    t5 : in unsigned(0 downto 0);
    n3_A2_pipe_out : out signed(11 downto 0);
    n4_A1_pipe_out : out signed(11 downto 0);
    n16_pipe_out : out unsigned(0 downto 0)
  );
end entity median3_dp_pipe_bb15;

architecture rtl of median3_dp_pipe_bb15 is
  signal n3_A2_pipe : signed(11 downto 0);
  signal n4_A1_pipe : signed(11 downto 0);
  signal n16_pipe : unsigned(0 downto 0);
begin
  n3_A2_pipe <= A2;
  n4_A1_pipe <= A1;
  n16_pipe <= t5;
  n3_A2_pipe_out <= n3_A2_pipe;
  n4_A1_pipe_out <= n4_A1_pipe;
  n16_pipe_out <= n16_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity median3_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in signed(11 downto 0);
    A1 : in signed(11 downto 0);
    A2 : in signed(11 downto 0);
    M_o0 : out signed(11 downto 0)
  );
end entity median3_dp;

architecture rtl of median3_dp is
  signal n3_A2_pipe : signed(11 downto 0);
  signal n4_A1_pipe : signed(11 downto 0);
  signal n5_A0_pipe : signed(11 downto 0);
  signal n6_A2_pipe : signed(11 downto 0);
  signal n7_A0_pipe : signed(11 downto 0);
  signal n8_A1_pipe : signed(11 downto 0);
  signal t9 : unsigned(0 downto 0);
  signal n10_pipe : unsigned(0 downto 0);
  signal m_4 : signed(11 downto 0);
  signal t8 : unsigned(0 downto 0);
  signal n13_pipe : unsigned(0 downto 0);
  signal m_5 : signed(11 downto 0);
  signal t5 : unsigned(0 downto 0);
  signal n16_pipe : unsigned(0 downto 0);
  signal m_9 : signed(11 downto 0);
  signal t4 : unsigned(0 downto 0);
  signal n19_pipe : unsigned(0 downto 0);
  signal m_10 : signed(11 downto 0);
  signal t3 : unsigned(0 downto 0);
  signal n22_pipe : unsigned(0 downto 0);
  signal m_11 : signed(11 downto 0);
begin
  u_node1 : entity work.median3_dp_node1
    port map (A0 => A0, A1 => A1, t3_out => t3);
  u_node2 : entity work.median3_dp_node2
    port map (A0 => A0, A2 => A2, t4_out => t4);
  u_node3 : entity work.median3_dp_node3
    port map (A1 => A1, A2 => A2, t5_out => t5);
  u_mux_bb15 : entity work.median3_dp_mux_bb15
    port map (n3_A2_pipe => n3_A2_pipe, n4_A1_pipe => n4_A1_pipe, n16_pipe => n16_pipe, m_9_out => m_9);
  u_mux_bb12 : entity work.median3_dp_mux_bb12
    port map (n5_A0_pipe => n5_A0_pipe, m_9 => m_9, n19_pipe => n19_pipe, m_10_out => m_10);
  u_node6 : entity work.median3_dp_node6
    port map (A1 => A1, A2 => A2, t8_out => t8);
  u_node7 : entity work.median3_dp_node7
    port map (A0 => A0, A2 => A2, t9_out => t9);
  u_mux_bb9 : entity work.median3_dp_mux_bb9
    port map (n6_A2_pipe => n6_A2_pipe, n7_A0_pipe => n7_A0_pipe, n10_pipe => n10_pipe, m_4_out => m_4);
  u_mux_bb6 : entity work.median3_dp_mux_bb6
    port map (n8_A1_pipe => n8_A1_pipe, m_4 => m_4, n13_pipe => n13_pipe, m_5_out => m_5);
  u_mux_bb3 : entity work.median3_dp_mux_bb3
    port map (m_5 => m_5, m_10 => m_10, n22_pipe => n22_pipe, m_11_out => m_11);
  u_node11 : entity work.median3_dp_node11;
  u_pipe_bb3 : entity work.median3_dp_pipe_bb3
    port map (t3 => t3, n22_pipe_out => n22_pipe);
  u_pipe_bb6 : entity work.median3_dp_pipe_bb6
    port map (A1 => A1, t8 => t8, n8_A1_pipe_out => n8_A1_pipe, n13_pipe_out => n13_pipe);
  u_pipe_bb9 : entity work.median3_dp_pipe_bb9
    port map (A0 => A0, A2 => A2, t9 => t9, n6_A2_pipe_out => n6_A2_pipe, n7_A0_pipe_out => n7_A0_pipe, n10_pipe_out => n10_pipe);
  u_pipe_bb12 : entity work.median3_dp_pipe_bb12
    port map (A0 => A0, t4 => t4, n5_A0_pipe_out => n5_A0_pipe, n19_pipe_out => n19_pipe);
  u_pipe_bb15 : entity work.median3_dp_pipe_bb15
    port map (A1 => A1, A2 => A2, t5 => t5, n3_A2_pipe_out => n3_A2_pipe, n4_A1_pipe_out => n4_A1_pipe, n16_pipe_out => n16_pipe);
  M_o0 <= m_11;
end architecture rtl;
