-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'sad4'
-- data path: 17 nodes (9 soft, 8 hard), 3 pipeline stages
-- netlist: 46 cells, 56 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_node1 is
  port (
    A0 : in unsigned(7 downto 0);
    A1 : in unsigned(7 downto 0);
    A2 : in unsigned(7 downto 0);
    A3 : in unsigned(7 downto 0);
    B0 : in unsigned(7 downto 0);
    B1 : in unsigned(7 downto 0);
    B2 : in unsigned(7 downto 0);
    B3 : in unsigned(7 downto 0);
    t15_out : out signed(8 downto 0);
    t13_out : out signed(8 downto 0);
    t11_out : out signed(8 downto 0);
    t9_out : out signed(8 downto 0);
    t17_out : out unsigned(0 downto 0)
  );
end entity sad4_dp_node1;

architecture rtl of sad4_dp_node1 is
  signal t14 : signed(8 downto 0);
  signal t15 : signed(8 downto 0);
  signal t12 : signed(8 downto 0);
  signal t13 : signed(8 downto 0);
  signal t10 : signed(8 downto 0);
  signal t11 : signed(8 downto 0);
  signal t8 : signed(8 downto 0);
  signal t9 : signed(8 downto 0);
  signal t17 : unsigned(0 downto 0);
begin
  t14 <= signed(resize(A3, 9)) - signed(resize(B3, 9));
  t15 <= t14;
  t12 <= signed(resize(A2, 9)) - signed(resize(B2, 9));
  t13 <= t12;
  t10 <= signed(resize(A1, 9)) - signed(resize(B1, 9));
  t11 <= t10;
  t8 <= signed(resize(A0, 9)) - signed(resize(B0, 9));
  t9 <= t8;
  t17 <= "1" when resize(t9, 10) < to_signed(0, 10) else "0";
  t15_out <= t15;
  t13_out <= t13;
  t11_out <= t11;
  t9_out <= t9;
  t17_out <= t17;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_node2 is
  port (
    t9 : in signed(8 downto 0);
    t19_out : out signed(8 downto 0)
  );
end entity sad4_dp_node2;

architecture rtl of sad4_dp_node2 is
  signal t18 : signed(8 downto 0);
  signal t19 : signed(8 downto 0);
begin
  t18 <= to_signed(0, 9) - t9;
  t19 <= t18;
  t19_out <= t19;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_mux_bb3 is
  port (
    n37_pipe : in signed(8 downto 0);
    t19 : in signed(8 downto 0);
    n41_pipe : in unsigned(0 downto 0);
    d0_2_out : out signed(8 downto 0)
  );
end entity sad4_dp_mux_bb3;

architecture rtl of sad4_dp_mux_bb3 is
  signal d0_2 : signed(8 downto 0);
begin
  d0_2 <= t19 when n41_pipe /= 0 else n37_pipe;
  d0_2_out <= d0_2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_node4 is
  port (
    n28_pipe : in signed(8 downto 0);
    t21_out : out unsigned(0 downto 0)
  );
end entity sad4_dp_node4;

architecture rtl of sad4_dp_node4 is
  signal t21 : unsigned(0 downto 0);
begin
  t21 <= "1" when resize(n28_pipe, 10) < to_signed(0, 10) else "0";
  t21_out <= t21;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_node5 is
  port (
    n28_pipe : in signed(8 downto 0);
    t23_out : out signed(8 downto 0)
  );
end entity sad4_dp_node5;

architecture rtl of sad4_dp_node5 is
  signal t22 : signed(8 downto 0);
  signal t23 : signed(8 downto 0);
begin
  t22 <= to_signed(0, 9) - n28_pipe;
  t23 <= t22;
  t23_out <= t23;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_mux_bb6 is
  port (
    n28_pipe : in signed(8 downto 0);
    t23 : in signed(8 downto 0);
    n32_pipe : in unsigned(0 downto 0);
    d1_2_out : out signed(8 downto 0)
  );
end entity sad4_dp_mux_bb6;

architecture rtl of sad4_dp_mux_bb6 is
  signal d1_2 : signed(8 downto 0);
begin
  d1_2 <= t23 when n32_pipe /= 0 else n28_pipe;
  d1_2_out <= d1_2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_node7 is
  port (
    n19_pipe : in signed(8 downto 0);
    t25_out : out unsigned(0 downto 0)
  );
end entity sad4_dp_node7;

architecture rtl of sad4_dp_node7 is
  signal t25 : unsigned(0 downto 0);
begin
  t25 <= "1" when resize(n19_pipe, 10) < to_signed(0, 10) else "0";
  t25_out <= t25;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_node8 is
  port (
    n19_pipe : in signed(8 downto 0);
    t27_out : out signed(8 downto 0)
  );
end entity sad4_dp_node8;

architecture rtl of sad4_dp_node8 is
  signal t26 : signed(8 downto 0);
  signal t27 : signed(8 downto 0);
begin
  t26 <= to_signed(0, 9) - n19_pipe;
  t27 <= t26;
  t27_out <= t27;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_mux_bb9 is
  port (
    n19_pipe : in signed(8 downto 0);
    t27 : in signed(8 downto 0);
    n23_pipe : in unsigned(0 downto 0);
    d2_2_out : out signed(8 downto 0)
  );
end entity sad4_dp_mux_bb9;

architecture rtl of sad4_dp_mux_bb9 is
  signal d2_2 : signed(8 downto 0);
begin
  d2_2 <= t27 when n23_pipe /= 0 else n19_pipe;
  d2_2_out <= d2_2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_node10 is
  port (
    n11_pipe : in signed(8 downto 0);
    t29_out : out unsigned(0 downto 0)
  );
end entity sad4_dp_node10;

architecture rtl of sad4_dp_node10 is
  signal t29 : unsigned(0 downto 0);
begin
  t29 <= "1" when resize(n11_pipe, 10) < to_signed(0, 10) else "0";
  t29_out <= t29;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_node11 is
  port (
    n11_pipe : in signed(8 downto 0);
    t31_out : out signed(8 downto 0)
  );
end entity sad4_dp_node11;

architecture rtl of sad4_dp_node11 is
  signal t30 : signed(8 downto 0);
  signal t31 : signed(8 downto 0);
begin
  t30 <= to_signed(0, 9) - n11_pipe;
  t31 <= t30;
  t31_out <= t31;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_mux_bb12 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    n11_pipe : in signed(8 downto 0);
    t31 : in signed(8 downto 0);
    n15_pipe : in unsigned(0 downto 0);
    d3_2_s2_out : out signed(8 downto 0)
  );
end entity sad4_dp_mux_bb12;

architecture rtl of sad4_dp_mux_bb12 is
  signal d3_2 : signed(8 downto 0);
  signal d3_2_s1 : signed(8 downto 0) := (others => '0');
  signal d3_2_s2 : signed(8 downto 0) := (others => '0');
begin
  d3_2 <= t31 when n15_pipe /= 0 else n11_pipe;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        d3_2_s1 <= d3_2;
        d3_2_s2 <= d3_2_s1;
      end if;
    end if;
  end process;
  d3_2_s2_out <= d3_2_s2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_node13 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    d0_2_pipe_s1 : in signed(8 downto 0);
    d1_2_pipe_s1 : in signed(8 downto 0);
    d2_2_pipe_s1 : in signed(8 downto 0);
    d3_2_s2 : in signed(8 downto 0);
    t36_out : out unsigned(11 downto 0)
  );
end entity sad4_dp_node13;

architecture rtl of sad4_dp_node13 is
  signal t33 : signed(9 downto 0);
  signal t34 : signed(10 downto 0);
  signal t34_s2 : signed(10 downto 0) := (others => '0');
  signal t35 : signed(10 downto 0);
  signal t36 : unsigned(11 downto 0);
begin
  t33 <= resize(d0_2_pipe_s1, 10) + resize(d1_2_pipe_s1, 10);
  t34 <= resize(t33, 11) + resize(d2_2_pipe_s1, 11);
  t35 <= t34_s2 + resize(d3_2_s2, 11);
  t36 <= unsigned(resize(t35, 12));
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t34_s2 <= t34;
      end if;
    end if;
  end process;
  t36_out <= t36;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_pipe_bb3 is
  port (
    t15 : in signed(8 downto 0);
    t13 : in signed(8 downto 0);
    t11 : in signed(8 downto 0);
    t9 : in signed(8 downto 0);
    t17 : in unsigned(0 downto 0);
    n11_pipe_out : out signed(8 downto 0);
    n19_pipe_out : out signed(8 downto 0);
    n28_pipe_out : out signed(8 downto 0);
    n37_pipe_out : out signed(8 downto 0);
    n41_pipe_out : out unsigned(0 downto 0)
  );
end entity sad4_dp_pipe_bb3;

architecture rtl of sad4_dp_pipe_bb3 is
  signal n11_pipe : signed(8 downto 0);
  signal n19_pipe : signed(8 downto 0);
  signal n28_pipe : signed(8 downto 0);
  signal n37_pipe : signed(8 downto 0);
  signal n41_pipe : unsigned(0 downto 0);
begin
  n11_pipe <= t15;
  n19_pipe <= t13;
  n28_pipe <= t11;
  n37_pipe <= t9;
  n41_pipe <= t17;
  n11_pipe_out <= n11_pipe;
  n19_pipe_out <= n19_pipe;
  n28_pipe_out <= n28_pipe;
  n37_pipe_out <= n37_pipe;
  n41_pipe_out <= n41_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_pipe_bb6 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    t21 : in unsigned(0 downto 0);
    d0_2 : in signed(8 downto 0);
    n32_pipe_out : out unsigned(0 downto 0);
    d0_2_pipe_s1_out : out signed(8 downto 0)
  );
end entity sad4_dp_pipe_bb6;

architecture rtl of sad4_dp_pipe_bb6 is
  signal n32_pipe : unsigned(0 downto 0);
  signal d0_2_pipe_s1 : signed(8 downto 0) := (others => '0');
begin
  n32_pipe <= t21;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        d0_2_pipe_s1 <= d0_2;
      end if;
    end if;
  end process;
  n32_pipe_out <= n32_pipe;
  d0_2_pipe_s1_out <= d0_2_pipe_s1;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_pipe_bb9 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    t25 : in unsigned(0 downto 0);
    d1_2 : in signed(8 downto 0);
    n23_pipe_out : out unsigned(0 downto 0);
    d1_2_pipe_s1_out : out signed(8 downto 0)
  );
end entity sad4_dp_pipe_bb9;

architecture rtl of sad4_dp_pipe_bb9 is
  signal n23_pipe : unsigned(0 downto 0);
  signal d1_2_pipe_s1 : signed(8 downto 0) := (others => '0');
begin
  n23_pipe <= t25;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        d1_2_pipe_s1 <= d1_2;
      end if;
    end if;
  end process;
  n23_pipe_out <= n23_pipe;
  d1_2_pipe_s1_out <= d1_2_pipe_s1;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp_pipe_bb12 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    t29 : in unsigned(0 downto 0);
    d2_2 : in signed(8 downto 0);
    n15_pipe_out : out unsigned(0 downto 0);
    d2_2_pipe_s1_out : out signed(8 downto 0)
  );
end entity sad4_dp_pipe_bb12;

architecture rtl of sad4_dp_pipe_bb12 is
  signal n15_pipe : unsigned(0 downto 0);
  signal d2_2_pipe_s1 : signed(8 downto 0) := (others => '0');
begin
  n15_pipe <= t29;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        d2_2_pipe_s1 <= d2_2;
      end if;
    end if;
  end process;
  n15_pipe_out <= n15_pipe;
  d2_2_pipe_s1_out <= d2_2_pipe_s1;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sad4_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in unsigned(7 downto 0);
    A1 : in unsigned(7 downto 0);
    A2 : in unsigned(7 downto 0);
    A3 : in unsigned(7 downto 0);
    B0 : in unsigned(7 downto 0);
    B1 : in unsigned(7 downto 0);
    B2 : in unsigned(7 downto 0);
    B3 : in unsigned(7 downto 0);
    S_o0 : out unsigned(11 downto 0)
  );
end entity sad4_dp;

architecture rtl of sad4_dp is
  signal t15 : signed(8 downto 0);
  signal n11_pipe : signed(8 downto 0);
  signal t31 : signed(8 downto 0);
  signal t29 : unsigned(0 downto 0);
  signal n15_pipe : unsigned(0 downto 0);
  signal t13 : signed(8 downto 0);
  signal n19_pipe : signed(8 downto 0);
  signal t27 : signed(8 downto 0);
  signal t25 : unsigned(0 downto 0);
  signal n23_pipe : unsigned(0 downto 0);
  signal d2_2 : signed(8 downto 0);
  signal t11 : signed(8 downto 0);
  signal n28_pipe : signed(8 downto 0);
  signal t23 : signed(8 downto 0);
  signal t21 : unsigned(0 downto 0);
  signal n32_pipe : unsigned(0 downto 0);
  signal d1_2 : signed(8 downto 0);
  signal t9 : signed(8 downto 0);
  signal n37_pipe : signed(8 downto 0);
  signal t19 : signed(8 downto 0);
  signal t17 : unsigned(0 downto 0);
  signal n41_pipe : unsigned(0 downto 0);
  signal d0_2 : signed(8 downto 0);
  signal d0_2_pipe_s1 : signed(8 downto 0);
  signal d1_2_pipe_s1 : signed(8 downto 0);
  signal d2_2_pipe_s1 : signed(8 downto 0);
  signal d3_2_s2 : signed(8 downto 0);
  signal t36 : unsigned(11 downto 0);
begin
  u_node1 : entity work.sad4_dp_node1
    port map (A0 => A0, A1 => A1, A2 => A2, A3 => A3, B0 => B0, B1 => B1, B2 => B2, B3 => B3, t15_out => t15, t13_out => t13, t11_out => t11, t9_out => t9, t17_out => t17);
  u_node2 : entity work.sad4_dp_node2
    port map (t9 => t9, t19_out => t19);
  u_mux_bb3 : entity work.sad4_dp_mux_bb3
    port map (n37_pipe => n37_pipe, t19 => t19, n41_pipe => n41_pipe, d0_2_out => d0_2);
  u_node4 : entity work.sad4_dp_node4
    port map (n28_pipe => n28_pipe, t21_out => t21);
  u_node5 : entity work.sad4_dp_node5
    port map (n28_pipe => n28_pipe, t23_out => t23);
  u_mux_bb6 : entity work.sad4_dp_mux_bb6
    port map (n28_pipe => n28_pipe, t23 => t23, n32_pipe => n32_pipe, d1_2_out => d1_2);
  u_node7 : entity work.sad4_dp_node7
    port map (n19_pipe => n19_pipe, t25_out => t25);
  u_node8 : entity work.sad4_dp_node8
    port map (n19_pipe => n19_pipe, t27_out => t27);
  u_mux_bb9 : entity work.sad4_dp_mux_bb9
    port map (n19_pipe => n19_pipe, t27 => t27, n23_pipe => n23_pipe, d2_2_out => d2_2);
  u_node10 : entity work.sad4_dp_node10
    port map (n11_pipe => n11_pipe, t29_out => t29);
  u_node11 : entity work.sad4_dp_node11
    port map (n11_pipe => n11_pipe, t31_out => t31);
  u_mux_bb12 : entity work.sad4_dp_mux_bb12
    port map (clk => clk, ce => ce, n11_pipe => n11_pipe, t31 => t31, n15_pipe => n15_pipe, d3_2_s2_out => d3_2_s2);
  u_node13 : entity work.sad4_dp_node13
    port map (clk => clk, ce => ce, d0_2_pipe_s1 => d0_2_pipe_s1, d1_2_pipe_s1 => d1_2_pipe_s1, d2_2_pipe_s1 => d2_2_pipe_s1, d3_2_s2 => d3_2_s2, t36_out => t36);
  u_pipe_bb3 : entity work.sad4_dp_pipe_bb3
    port map (t15 => t15, t13 => t13, t11 => t11, t9 => t9, t17 => t17, n11_pipe_out => n11_pipe, n19_pipe_out => n19_pipe, n28_pipe_out => n28_pipe, n37_pipe_out => n37_pipe, n41_pipe_out => n41_pipe);
  u_pipe_bb6 : entity work.sad4_dp_pipe_bb6
    port map (clk => clk, ce => ce, t21 => t21, d0_2 => d0_2, n32_pipe_out => n32_pipe, d0_2_pipe_s1_out => d0_2_pipe_s1);
  u_pipe_bb9 : entity work.sad4_dp_pipe_bb9
    port map (clk => clk, ce => ce, t25 => t25, d1_2 => d1_2, n23_pipe_out => n23_pipe, d1_2_pipe_s1_out => d1_2_pipe_s1);
  u_pipe_bb12 : entity work.sad4_dp_pipe_bb12
    port map (clk => clk, ce => ce, t29 => t29, d2_2 => d2_2, n15_pipe_out => n15_pipe, d2_2_pipe_s1_out => d2_2_pipe_s1);
  S_o0 <= t36;
end architecture rtl;
