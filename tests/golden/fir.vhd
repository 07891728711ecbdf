-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'fir'
-- data path: 1 nodes (1 soft, 0 hard), 3 pipeline stages
-- netlist: 22 cells, 65 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity fir_dp_node1 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in signed(7 downto 0);
    A1 : in signed(7 downto 0);
    A2 : in signed(7 downto 0);
    A3 : in signed(7 downto 0);
    A4_s2 : in signed(7 downto 0);
    t19_out : out signed(12 downto 0)
  );
end entity fir_dp_node1;

architecture rtl of fir_dp_node1 is
  signal t9 : signed(9 downto 0);
  signal t10 : signed(10 downto 0);
  signal t7 : signed(9 downto 0);
  signal t8 : signed(10 downto 0);
  signal t11 : signed(11 downto 0);
  signal t15 : signed(10 downto 0);
  signal t16 : signed(11 downto 0);
  signal t12 : signed(10 downto 0);
  signal t13 : signed(11 downto 0);
  signal t11_s1 : signed(11 downto 0) := (others => '0');
  signal t13_s1 : signed(11 downto 0) := (others => '0');
  signal t14 : signed(12 downto 0);
  signal t16_s1 : signed(11 downto 0) := (others => '0');
  signal t17 : signed(12 downto 0);
  signal t17_s2 : signed(12 downto 0) := (others => '0');
  signal t18 : signed(12 downto 0);
  signal t19 : signed(12 downto 0);
begin
  t9 <= shift_left(resize(A1, 10), 2);
  t10 <= resize(A1, 11) + resize(t9, 11);
  t7 <= shift_left(resize(A0, 10), 2);
  t8 <= resize(t7, 11) - resize(A0, 11);
  t11 <= resize(t8, 12) + resize(t10, 12);
  t15 <= shift_left(resize(A3, 11), 3);
  t16 <= resize(A3, 12) + resize(t15, 12);
  t12 <= shift_left(resize(A2, 11), 3);
  t13 <= resize(t12, 12) - resize(A2, 12);
  t14 <= resize(t11_s1, 13) + resize(t13_s1, 13);
  t17 <= t14 + resize(t16_s1, 13);
  t18 <= t17_s2 - resize(A4_s2, 13);
  t19 <= t18;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t11_s1 <= t11;
        t13_s1 <= t13;
        t16_s1 <= t16;
        t17_s2 <= t17;
      end if;
    end if;
  end process;
  t19_out <= t19;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity fir_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in signed(7 downto 0);
    A1 : in signed(7 downto 0);
    A2 : in signed(7 downto 0);
    A3 : in signed(7 downto 0);
    A4 : in signed(7 downto 0);
    C_o0 : out signed(15 downto 0)
  );
end entity fir_dp;

architecture rtl of fir_dp is
  signal t19 : signed(12 downto 0);
  signal A4_s1 : signed(7 downto 0) := (others => '0');
  signal A4_s2 : signed(7 downto 0) := (others => '0');
begin
  u_node1 : entity work.fir_dp_node1
    port map (clk => clk, ce => ce, A0 => A0, A1 => A1, A2 => A2, A3 => A3, A4_s2 => A4_s2, t19_out => t19);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        A4_s1 <= A4;
        A4_s2 <= A4_s1;
      end if;
    end if;
  end process;
  C_o0 <= resize(t19, 16);
end architecture rtl;
